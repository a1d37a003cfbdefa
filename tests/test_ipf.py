import random

import pytest

from extraction import lanes_of
from graphgen import random_two_color
from trine.ac23 import Mask, build_graph
from trine.dynamics import pack, run_to_mirror
from trine.errors import DegenerateRun
from trine.graph import complement
from trine import ipf
from trine.ipf import check_ipf, filled_rows, mirrored, mirrored_filled


@pytest.fixture
def fixture_pair(ring3):
    return run_to_mirror(ring3, "ABA"), run_to_mirror(ring3, "BAB")


def one_node_pair(history: str, comp_history: str):
    """The lanes (see ``ipf.PairLanes``) of two one-node runs whose
    states spell the given histories, trajectories each: no B at t = 1,
    and a B exactly after each C."""
    readouts = [(len(h), *pack(h[-1]), None) for h in (history, comp_history)]
    texts = [h.replace("B", "").translate(str.maketrans("AC", "01"))
             for h in (history, comp_history)]
    return (*readouts, *texts)


def node_filled(history: str, comp_history: str, slot_count: int) -> tuple:
    """filled_rows' row for a pair of one-node runs."""
    return filled_rows(one_node_pair(history, comp_history), slot_count)[0]


class TestSlotsFromHistory:
    def test_fixture_node0(self):
        # A at t=1 takes slot 0, C at t=2 takes slot 1, the B opens none;
        # the complement's C at t=1 fills slot 0
        assert node_filled("ACB", "CBA", 2) == ((1, True), (2, False))

    def test_all_a_history(self):
        # the complement's C's at t = 1, 3, 5 fill every slot
        assert node_filled("AAA", "CBCBC", 3) == ((1, True), (3, True), (5, True))

    def test_b_inherits_no_slot(self):
        # C opens a slot, the following B does not
        assert node_filled("CBCB", "AAAA", 2) == ((1, False), (3, False))

    def test_overflow_reported_via_count(self):
        report = check_ipf(one_node_pair("AAAA", "CBCBC"), 1)
        assert report.K == 3
        assert [w for w in report.witnesses if w["condition"] == "slots"] == [
            {"condition": "slots", "node": 0, "detail": "run: 4 events for 3 slots"}]
        assert report.failure_counts["slots"] == 1

    def test_slots_past_the_last_event_are_empty(self):
        # swapped skeletons, then skeletons that differ
        assert node_filled("CBA", "ACB", 4) == ((1, False), (2, True), None, None)
        assert node_filled("CBA", "AAC", 4) == ((1, False), None, (3, True), None)


class TestBuildSlots:
    def test_fixture_tables(self, fixture_pair):
        # the slot layout the rows are read from: two slots; node 0 has A
        # then C in the run and C then A in the complement; every node has
        # two events in both runs, so no node overflows
        run, comp = fixture_pair
        report = check_ipf(lanes_of(run, comp), run.graph.node_count)
        assert report.K == 2
        assert run.skeletons[0] == "01"
        assert comp.skeletons[0] == "10"
        assert [len(s) for s in run.skeletons] == [2, 2, 2]
        assert [len(s) for s in comp.skeletons] == [2, 2, 2]
        assert "slots" not in report.failure_counts
        assert run.lambda_value == 0


class TestFilledSlots:
    def test_fixture_rows(self, fixture_pair):
        # node 0: the complement's C at t=1 fills slot 0, the run's C at
        # t=2 fills slot 1
        assert filled_rows(lanes_of(*fixture_pair)) == (
            ((1, True), (2, False)),
            ((1, False), (2, True)),
            ((1, True), (2, False)),
        )

    def test_a_slot_needs_exactly_one_c(self):
        # C in both runs, A in both, C against no event
        assert node_filled("CBAC", "CBA", 3) == (None, None, (4, False))
        # C against A, A against C, no event against C
        assert node_filled("CBA", "ACBC", 3) == ((1, False), (2, True), (4, True))

    def test_degenerate_raises(self, ring3):
        a = run_to_mirror(ring3, "AAA")
        b = run_to_mirror(ring3, "BBB")
        with pytest.raises(DegenerateRun):
            filled_rows(lanes_of(a, b))

    def test_report_json_carries_no_rows(self, fixture_pair):
        data = check_ipf(lanes_of(*fixture_pair), 3, level="full").to_json_dict()
        assert not {"filled", "runs"} & set(data)

    def test_rows_of_a_pair_that_fails_the_slot_conditions(self):
        # (1,5) at L=7: BAABAAA fails [4]..[7], and every node has 9
        # events in the run and 11 in the complement for K = 10 slots
        run, comp = pair_for(Mask(1, 5), 7, "BAABAAA")
        report = check_ipf(lanes_of(run, comp), run.graph.node_count, level="full")
        assert report.c4 is False
        overflow = [w["detail"] for w in report.witnesses if w["condition"] == "slots"]
        assert overflow == ["run: 9 events for 10 slots"] * 7 + [
            "complement run: 11 events for 10 slots"] * 7
        assert report.failure_counts["slots"] == 14
        assert filled_rows(lanes_of(run, comp))[3][6:] == ((10, True), None, None, None)

    def test_c8_at_origin0_fails_on_every_first_phase(self, fixture_pair):
        # counted from 0 every F(0) is odd, and nothing else fails, so
        # the pattern holds at origin 1
        report = check_ipf(lanes_of(*fixture_pair), 3, level="full", time_origin=0)
        assert [w["detail"] for w in report.witnesses] == [
            "F(0)=3 is odd", "F(0)=1 is odd", "F(0)=3 is odd"]
        assert (report.c8_origin0, report.c8_origin1) == (False, True)


class TestCheckIpf:
    def test_fixture_report(self, fixture_pair):
        report = check_ipf(lanes_of(*fixture_pair), 3, level="full", time_origin=0)
        assert (report.T, report.Tbar) == (3, 3)
        assert (report.lambda_value, report.lambda_bar) == (0, 0)
        assert report.K == 2
        assert report.div3
        assert report.c1 and report.c1_complemented and not report.c1_raw
        assert report.c2 and report.c3
        assert report.c4 and report.c5 and report.c6 and report.c7
        assert report.light_ok
        # phase parity matches the event times only when counted from 0
        assert report.c8_origin0 is False
        assert report.c8_origin1 is True
        assert report.c8 is False and report.full_ok is False

    def test_fixture_full_with_calibrated_origin(self, fixture_pair):
        report = check_ipf(lanes_of(*fixture_pair), 3, level="full", time_origin=1)
        assert report.c8 is True
        assert report.full_ok is True

    def test_raw_interpretation_fails_fixture(self, fixture_pair):
        report = check_ipf(lanes_of(*fixture_pair), 3, cond1_interpretation="raw")
        assert report.c1 is False
        assert not report.light_ok
        assert any(w["condition"] == "c1" for w in report.witnesses)

    def test_light_level_leaves_slot_conditions_unevaluated(self, fixture_pair):
        report = check_ipf(lanes_of(*fixture_pair), 3, level="light")
        assert report.light_ok
        assert report.c4 is None and report.c8 is None
        assert report.full_ok is None

    def test_degenerate_raises(self, ring3):
        with pytest.raises(DegenerateRun):
            check_ipf(lanes_of(run_to_mirror(ring3, "AAA"), run_to_mirror(ring3, "BBB")), 3)

    def test_json_contract(self, fixture_pair):
        data = check_ipf(lanes_of(*fixture_pair), 3).to_json_dict()
        for key in ("T", "Tbar", "lambda", "lambdaBar", "K", "div3", "light",
                    "full", "witnesses"):
            assert key in data
        for i in range(1, 9):
            assert f"c{i}" in data

    def test_bad_arguments(self, fixture_pair):
        with pytest.raises(ValueError):
            check_ipf(lanes_of(*fixture_pair), 3, level="medium")
        with pytest.raises(ValueError):
            check_ipf(lanes_of(*fixture_pair), 3, cond1_interpretation="inverted")
        with pytest.raises(ValueError):
            check_ipf(lanes_of(*fixture_pair), 3, time_origin=2)


def pair_for(mask, L, start, max_steps=10**6):
    g = build_graph(mask, L)
    return run_to_mirror(g, start, max_steps), run_to_mirror(g, complement(start), max_steps)


class TestMirrored:
    # (1,3) at L=9: ABBABAAAA's complement skeletons are its own with A
    # and C swapped, node by node (T = T-bar = 66, K = 44)
    SWAP_AC = str.maketrans("01", "10")

    def test_a_pair_whose_complement_skeletons_are_swapped(self):
        run, comp = pair_for(Mask(1, 3), 9, "ABBABAAAA")
        assert comp.skeletons == tuple(s.translate(self.SWAP_AC) for s in run.skeletons)
        assert mirrored(run.skeleton_text, comp.skeleton_text)
        assert not mirrored(run.skeleton_text, run.skeleton_text)
        # the rows rt reads off the run's skeletons alone
        assert tuple(mirrored_filled(s, 44) for s in run.skeletons) == filled_rows(
            lanes_of(run, comp))

    @pytest.mark.parametrize("node", [0, 8])
    def test_one_node_that_differs_is_enough(self, node):
        # the complement's skeleton at one node, its last event flipped,
        # dropped or followed by one more
        run, comp = pair_for(Mask(1, 3), 9, "ABBABAAAA")
        skeleton = comp.skeletons[node]
        flipped = skeleton[:-1] + skeleton[-1].translate(self.SWAP_AC)
        for changed in (flipped, skeleton[:-1], skeleton + "0"):
            skeletons = list(comp.skeletons)
            skeletons[node] = changed
            assert not mirrored(run.skeleton_text, "2".join(skeletons))

    @pytest.mark.parametrize("origin", [0, 1])
    def test_check_ipf_reads_every_cell_of_a_mirrored_pair(self, monkeypatch, origin):
        run, comp = pair_for(Mask(1, 3), 9, "ABBABAAAA")

        def refused(*args):
            raise AssertionError("check_ipf took the mirrored shortcut")

        monkeypatch.setattr(ipf, "mirrored", refused)
        report = check_ipf(lanes_of(run, comp), 9, level="full", time_origin=origin)
        assert (report.c4, report.c5, report.c6, report.c7) == (True,) * 4
        assert (report.c8, report.c8_origin0, report.c8_origin1) == (origin == 1, False, True)
        assert report.failure_counts == ({} if origin else {"c8": 9})


class TestOnMaskRuns:
    def test_known_bad_pair(self):
        # smallest failing pair of the incorrect mask (1,5)
        run, comp = pair_for(Mask(1, 5), 7, "BABAAAA")
        report = check_ipf(lanes_of(run, comp), run.graph.node_count, level="light")
        assert not report.light_ok
        assert report.first_failed_condition == "div3"
        assert any(w["condition"] == "div3" for w in report.witnesses)

    def test_k_identity_per_node(self):
        # K equals each node's A count plus its C count once [2],[3] hold
        rng = random.Random(31)
        mask = Mask(1, 3)
        for _ in range(60):
            L = rng.randint(5, 9)
            start = random_two_color(rng, L)
            run, comp = pair_for(mask, L, start)
            if run.degenerate or comp.degenerate:
                continue
            report = check_ipf(lanes_of(run, comp), run.graph.node_count, level="full")
            assert report.c2 and report.c3
            for n_a, n_b, n_c in run.color_counts:
                assert n_a + n_c == report.K

    def test_slot_condition_redundancy(self):
        # [4]+[6] force [5]+[7]; any inconsistency would be a red flag
        rng = random.Random(37)
        masks = [Mask(1, 3), Mask(1, 5), Mask(3, 5)]
        seen_failure = False
        for _ in range(120):
            mask = rng.choice(masks)
            L = rng.randint(5, 9)
            run, comp = pair_for(mask, L, random_two_color(rng, L))
            if run.degenerate or comp.degenerate:
                continue
            report = check_ipf(lanes_of(run, comp), run.graph.node_count, level="full")
            if report.c4 and report.c6:
                assert report.c5 and report.c7
            if report.full_ok is False:
                seen_failure = True
        assert seen_failure  # the sample includes failing pairs

    def test_correct_masks_full_level_small(self):
        # spot check: the known-correct masks pass the full check
        for mask in (Mask(1, 1), Mask(1, 3), Mask(3, 3)):
            for L in (5, 6, 7):
                for bits in range(0, 2**L, 7):
                    start = "".join("B" if (bits >> v) & 1 else "A" for v in range(L))
                    run, comp = pair_for(mask, L, start)
                    if run.degenerate or comp.degenerate:
                        continue
                    report = check_ipf(lanes_of(run, comp), run.graph.node_count, level="full", time_origin=1)
                    assert report.full_ok, (mask, L, start, report.first_failed_condition)

    def test_c8_failure_count_is_the_total_past_the_witness_cap(self):
        # every one of the 9 nodes has an odd F(0) at time origin 0; only
        # 8 witnesses are kept, but the count is the total
        run, comp = pair_for(Mask(1, 1), 9, "BAAAAAAAA")
        report = check_ipf(lanes_of(run, comp), run.graph.node_count, level="full", time_origin=0)
        assert report.failure_counts == {"c8": 9}
        assert report.to_json_dict()["failureCounts"]["c8"] == 9
        c8_witnesses = [w for w in report.witnesses if w["condition"] == "c8"]
        assert len(c8_witnesses) == 8
        assert all(w["detail"].startswith("F(0)=") for w in c8_witnesses)
        assert (report.c8_origin0, report.c8_origin1) == (False, True)
