import hashlib
import os
import pickle
import random
from collections import Counter
from dataclasses import fields, replace
from math import gcd

import pytest

from extraction import lanes_of
from graphgen import assert_same_graph, checked_circulant
from trine import ac23, rt
from trine.ac23 import (
    CORRECT_SO_FAR,
    INCONCLUSIVE,
    INCORRECT,
    Mask,
    build_graph,
    classify_mask,
    connection_set,
    degenerate_at,
    mask_weak_computable,
    parse_mask,
    verdict_grid,
)
from trine.config import Config
from trine.dynamics import rotate, run_to_mirror, unpack
from trine.errors import MaxStepsExceeded
from trine.graph import complement, weak_computable
from trine.ipf import check_ipf


class TestMask:
    def test_offsets(self):
        mask = Mask(1, 3)
        assert mask.left_offsets == (1,)
        assert mask.right_offsets == (1, 2)
        assert mask.point_count == 4

    def test_column_offsets(self):
        assert Mask(3, 5).column_offsets == (0, -2, -1, 1, 3)
        assert Mask(1, 3).column_offsets == (0, -1, 1, 2)

    def test_point_counts(self):
        assert Mask(1, 1).point_count == 3
        assert Mask(3, 5).point_count == 5

    def test_reflection(self):
        assert Mask(1, 3).reflected == Mask(3, 1)

    @staticmethod
    def read_geometry(n, m):
        """The five attributes as the former ``cached_property`` bodies
        read them on first use."""
        def offsets(bits):
            return tuple(i + 1 for i in range(bits.bit_length()) if (bits >> i) & 1)
        left, right = offsets(n), offsets(m)
        steps = tuple(sorted([-d for d in left] + list(right)))
        return {"left_offsets": left, "right_offsets": right,
                "point_count": len(left) + len(right) + 1, "steps": steps,
                "column_offsets": (0, *steps)}

    def test_geometry_is_built_at_construction_as_it_was_read(self):
        assert [f.name for f in fields(Mask)] == ["n", "m"]
        for n in range(1, 128):
            for m in range(1, 128):
                mask = Mask(n, m)
                expected = self.read_geometry(n, m)
                assert {name: getattr(mask, name) for name in expected} == expected
                copied = pickle.loads(pickle.dumps(mask))
                assert {name: getattr(copied, name) for name in expected} == expected
                assert copied == mask and hash(copied) == hash(mask) == hash((n, m))
                assert repr(copied) == f"Mask(n={n}, m={m})"
                swapped = replace(mask, n=m, m=n)
                assert swapped == mask.reflected
                assert {name: getattr(swapped, name) for name in expected} == (
                    self.read_geometry(m, n))

    def test_parse(self):
        assert parse_mask("3,5") == Mask(3, 5)
        with pytest.raises(ValueError):
            parse_mask("3;5")
        with pytest.raises(ValueError):
            Mask(0, 1)


class TestBuildGraph:
    def test_ring_mask(self):
        g = build_graph(Mask(1, 1), 5)
        assert g.directed == frozenset()
        assert g.undirected == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})

    def test_mixed_mask(self):
        g = build_graph(Mask(1, 3), 7)
        ring = {(x, (x + 1) % 7) for x in range(7)}
        ring = {(min(u, v), max(u, v)) for u, v in ring}
        assert g.undirected == frozenset(ring)
        assert g.directed == frozenset((x, (x + 2) % 7) for x in range(7))

    def test_asymmetric_mask(self):
        g = build_graph(Mask(3, 5), 9)
        assert (0, 7) in g.directed  # x -> x-2
        assert (0, 3) in g.directed  # x -> x+3
        assert (0, 1) in g.undirected or (1, 0) in g.undirected

    def test_connection_set_fixes_the_graph(self):
        # the key under which verdict_grid cells share a size's work
        graphs = {}
        for L in range(3, 11):
            for n in range(1, 16):
                for m in range(1, 16):
                    mask = Mask(n, m)
                    steps = ({-d % L for d in mask.left_offsets}
                             | {d % L for d in mask.right_offsets}) - {0}
                    S = connection_set(mask, L)
                    assert S == steps
                    g = build_graph(mask, L)
                    assert graphs.setdefault((L, S), g) == g
        # and distinct sets give distinct graphs
        assert len(set(graphs.values())) == len(graphs)

    def test_matches_the_checked_constructor(self):
        # every connection set of n, m < 64 at L <= 12, where steps wrap
        # around and collide, and each mask at one larger L, 13..40 in
        # turn (all 150,822 builds at L <= 40 take about 100 s)
        seen = set()
        for n in range(1, 64):
            for m in range(1, 64):
                mask = Mask(n, m)
                for L in (*range(3, 13), 13 + (64 * n + m) % 28):
                    S = connection_set(mask, L)
                    if (L, S) not in seen:
                        seen.add((L, S))
                        assert_same_graph(build_graph(mask, L), checked_circulant(L, S))
        assert len(seen) == 7941

    def test_rejects_tiny_circle(self):
        with pytest.raises(ValueError):
            build_graph(Mask(1, 1), 2)

    def test_neighbor_count_matches_point_count(self):
        # away from collisions, each node sees point_count - 1 neighbors
        for mask in (Mask(1, 1), Mask(1, 3), Mask(3, 5), Mask(5, 9)):
            L = 2 * max(mask.left_offsets + mask.right_offsets) + 1
            g = build_graph(mask, L)
            for v in range(L):
                assert len(g.out_neighbors(v)) == mask.point_count - 1


class TestDegeneracy:
    def test_known_degenerate_sizes(self):
        assert [L for L in range(3, 13) if degenerate_at(Mask(1, 5), L)] == [3, 4]
        assert [L for L in range(3, 13) if degenerate_at(Mask(3, 5), L)] == [3, 4, 5]
        assert not degenerate_at(Mask(1, 1), 3)

    def test_wraparound_offset(self):
        assert degenerate_at(Mask(1, 17), 5)  # offset 5 lands on the center

    @staticmethod
    def collide(mask, L):
        """The points' collision test, target by target."""
        left, right = mask.left_offsets, mask.right_offsets
        if any(d >= L for d in left + right):
            return True
        targets = [(-d) % L for d in left] + [d % L for d in right]
        return 0 in targets or len(set(targets)) != len(targets)

    def test_read_off_the_connection_set(self):
        masks = [Mask(n, m) for n in range(1, 128) for m in range(1, 128)]
        wrong = [(mask, L) for L in range(3, 41) for mask in masks
                 if degenerate_at(mask, L) != self.collide(mask, L)]
        assert not wrong


class TestWeakComputability:
    def test_odd_masks_all_sizes(self):
        for L in range(3, 12):
            assert mask_weak_computable(Mask(1, 1), L)
            assert mask_weak_computable(Mask(3, 5), L)

    def test_adjacent_even_bits(self):
        assert mask_weak_computable(Mask(6, 7), 11)
        assert mask_weak_computable(Mask(6, 14), 11)

    def test_even_mask_without_ring(self):
        assert not mask_weak_computable(Mask(2, 4), 8)
        g = build_graph(Mask(2, 4), 8)
        assert not weak_computable(g)

    def test_odd_masks_contain_the_full_ring(self):
        for mask in (Mask(1, 1), Mask(3, 5), Mask(5, 9), Mask(17, 19)):
            for L in (8, 11):
                g = build_graph(mask, L)
                for x in range(L):
                    pair = (min(x, (x + 1) % L), max(x, (x + 1) % L))
                    assert pair in g.undirected

    def test_read_off_the_connection_set(self):
        # against a walk of the built graph for n, m < 64 at L 3..40; the
        # walk reads the undirected edges alone, the steps s and -s both
        # in S, so it runs once per set of such steps
        masks = [Mask(n, m) for n in range(1, 64) for m in range(1, 64)]
        walked = {}
        for L in range(3, 41):
            for mask in masks:
                S = connection_set(mask, L)
                key = (L, S & {-s % L for s in S})
                if key not in walked:
                    walked[key] = weak_computable(checked_circulant(L, S))
                assert mask_weak_computable(mask, L) == walked[key], (mask, L)
        assert len(set(walked.values())) == 2

    def test_nowhere_weak_computable_is_rejected(self):
        with pytest.raises(ValueError, match="not weak computable"):
            classify_mask(Mask(2, 4), quick_config(lmax=5))


def multiplier_orbit(S, L):
    """The connection sets aS = {a*s mod L : s in S}, a a unit mod L."""
    return L, frozenset(frozenset(a * s % L for s in S)
                        for a in range(1, L) if gcd(a, L) == 1)


def quick_config(**kwargs):
    base = dict(lmin=3, lmax=8, exhaustive_cutoff=8, samples_per_L=0,
                check_level="light", threads=1)
    base.update(kwargs)
    return Config(**base)


class TestClassifyMask:
    @pytest.mark.parametrize("n,m,level", [(1, 1, "light"), (1, 5, "light"), (1, 3, "full")])
    def test_one_graph_build_per_size(self, monkeypatch, n, m, level):
        built = []

        def counting_build(mask, L):
            built.append(L)
            return build_graph(mask, L)

        monkeypatch.setattr(ac23, "build_graph", counting_build)
        cfg = quick_config(lmax=9, exhaustive_cutoff=7, samples_per_L=6, check_level=level)
        verdict = classify_mask(Mask(n, m), cfg)
        assert built == list(range(3, verdict.tested[-1]["L"] + 1))

    def test_incorrect_mask_witness(self):
        verdict = classify_mask(Mask(1, 5), quick_config())
        assert verdict.status == INCORRECT
        assert verdict.witness == {"L": 7, "start": "BABAAAA", "condition": "div3"}

    def test_correct_mask_envelope(self):
        verdict = classify_mask(Mask(1, 1), quick_config())
        assert verdict.status == CORRECT_SO_FAR
        assert verdict.witness is None
        tested = {b["L"]: b for b in verdict.tested}
        assert set(tested) == set(range(3, 9))
        assert tested[5]["mode"] == "exhaustive"
        # uniform starts are skipped as degenerate at every size
        assert all(b["degenerate_skips"] >= 2 for b in verdict.tested)

    def test_degenerate_size_never_decides(self):
        # (1,5) collides at L=3,4; those blocks are flagged, not judged
        verdict = classify_mask(Mask(1, 5), quick_config())
        for block in verdict.tested:
            if block.get("degenerate_L"):
                assert "degenerate_witness" not in block or verdict.witness != block.get("degenerate_witness")
        assert verdict.witness["L"] == 7

    def test_sampling_mode(self):
        cfg = quick_config(lmax=10, exhaustive_cutoff=6, samples_per_L=40)
        verdict = classify_mask(Mask(1, 3), cfg)
        modes = {b["L"]: b["mode"] for b in verdict.tested}
        assert modes[6] == "exhaustive"
        assert modes[7] == "sampled"
        assert verdict.status == CORRECT_SO_FAR

    def test_determinism_with_sampling(self):
        cfg = quick_config(lmax=11, exhaustive_cutoff=7, samples_per_L=25, seed=99)
        a = classify_mask(Mask(3, 5), cfg)
        b = classify_mask(Mask(3, 5), cfg)
        assert a.to_json_dict() == b.to_json_dict()

    def test_parallel_matches_serial(self):
        serial = classify_mask(Mask(1, 5), quick_config())
        other = classify_mask(Mask(1, 5), quick_config(threads=2))
        assert serial.to_json_dict() == other.to_json_dict()
        with pytest.raises(ValueError, match="threads must be at least 1"):
            quick_config(threads=0)

    def test_no_samples_above_the_cutoff_is_rejected(self):
        # sizes above the cutoff would test no start, and a verdict
        # would claim them
        with pytest.raises(ValueError, match=r"--samples.*L = 13\.\.14.*--cutoff"):
            Config(lmin=13, lmax=14, samples_per_L=0)
        assert Config(lmax=12, samples_per_L=0).lmax == 12

    def test_budget_cuts_search_short(self):
        verdict = classify_mask(Mask(1, 1), quick_config(), budget=10)
        assert verdict.budget_exhausted
        assert sum(b["planned"] for b in verdict.tested) == 10
        assert verdict.status == CORRECT_SO_FAR

    @pytest.mark.parametrize("lmax,budget,exhausted", [
        (8, 8, True),  # L=3 uses it all up; L=4..8 are never examined
        (8, 8 + 16, True),
        (4, 8 + 16, False),  # the budget covers every size up to lmax
        (8, 2**9 - 8, False),
    ])
    def test_budget_ending_at_a_size_boundary(self, lmax, budget, exhausted):
        verdict = classify_mask(Mask(1, 1), quick_config(lmax=lmax), budget=budget)
        assert verdict.budget_exhausted is exhausted
        assert sum(b["planned"] for b in verdict.tested) == budget

    def test_unresolved_runs_at_a_clean_size_are_inconclusive(self):
        # (1,5) collides at L=3,4: unresolved runs there do not count
        cfg = quick_config(lmax=4, max_steps=1)
        assert classify_mask(Mask(1, 5), cfg).status == CORRECT_SO_FAR
        verdict = classify_mask(Mask(1, 5), quick_config(lmax=5, max_steps=1))
        assert verdict.status == INCONCLUSIVE
        assert verdict.witness is None
        assert verdict.tested[-1]["unresolved"] > 0

    def test_full_level(self):
        cfg = quick_config(lmax=6, check_level="full")
        assert classify_mask(Mask(1, 1), cfg).status == CORRECT_SO_FAR

    def test_json_shape(self):
        data = classify_mask(Mask(1, 5), quick_config()).to_json_dict()
        assert data["mask"] == {"n": 1, "m": 5, "N": 4}
        assert data["status"] == INCORRECT
        assert data["witness"]["L"] == 7
        assert isinstance(data["tested"], list)


def naive_envelope(mask, config, total=None):
    """Reference sweep: run and check every start index in turn at every
    L (only the first ``total`` at each, when given), stopping at a
    size's first failure.  Up to the exhaustive cutoff the index is the
    start's bit pattern, past it the index of a seeded sample.  Returns
    (L, tested, degenerate skips, unresolved, first unresolved start,
    first failure there) per L and the witness."""
    sizes = []
    for L in range(config.lmin, config.lmax + 1):
        g = build_graph(mask, L)
        tested = degenerate = unresolved = 0
        first_unresolved = found = None
        if L <= config.exhaustive_cutoff:
            starts = range(2**L if total is None else total)
        else:
            starts = list(ac23._samples(config.seed, mask.n, mask.m, L,
                                        range(config.samples_per_L)))
        for bits in starts:
            start = unpack(L, 0, bits)
            try:
                run = run_to_mirror(g, start, config.max_steps)
                comp_run = run_to_mirror(g, complement(start), config.max_steps)
            except MaxStepsExceeded:
                unresolved += 1
                first_unresolved = first_unresolved or start
                continue
            if run.degenerate or comp_run.degenerate:
                degenerate += 1
                continue
            report = check_ipf(lanes_of(run, comp_run), L, level=config.check_level,
                               cond1_interpretation=config.cond1_interpretation,
                               time_origin=config.time_origin)
            tested += 1
            if not report.passed:
                found = {"L": L, "start": start,
                         "condition": report.first_failed_condition}
                break
        sizes.append((L, tested, degenerate, unresolved, first_unresolved, found))
        if found is not None and not degenerate_at(mask, L):
            return sizes, found
    return sizes, None


def reduced_envelope(mask, config, budget=None):
    """The same figures from ``classify_mask``."""
    verdict = classify_mask(mask, config, budget)
    sizes = []
    for block in verdict.tested:
        found = block.get("degenerate_witness")
        if block is verdict.tested[-1] and verdict.witness:
            found = verdict.witness
        sizes.append((block["L"], block["tested"], block["degenerate_skips"],
                      block["unresolved"], block.get("first_unresolved"), found))
    return sizes, verdict.witness


class TestRotationReduction:
    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_matches_naive_sweep(self, n, m):
        cfg = quick_config(lmax=9, exhaustive_cutoff=9)
        assert reduced_envelope(Mask(n, m), cfg) == naive_envelope(Mask(n, m), cfg)

    @pytest.mark.parametrize("n,m", [(1, 3), (1, 5)])
    def test_matches_naive_sweep_over_two_blocks(self, n, m):
        cfg = quick_config(lmin=12, lmax=12, exhaustive_cutoff=12)
        assert reduced_envelope(Mask(n, m), cfg) == naive_envelope(Mask(n, m), cfg)

    @pytest.mark.parametrize("n,m,lmin,lmax", [(1, 5, 3, 9), (9, 5, 3, 9),
                                               (1, 3, 12, 12), (1, 5, 12, 12)])
    def test_two_batches_match_naive_sweep(self, n, m, lmin, lmax):
        cfg = quick_config(lmin=lmin, lmax=lmax, exhaustive_cutoff=lmax, threads=2)
        assert reduced_envelope(Mask(n, m), cfg) == naive_envelope(Mask(n, m), cfg)

    @pytest.mark.parametrize("level", ["light", "full"])
    @pytest.mark.parametrize("cond1", ["raw", "complemented"])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n,m", [(1, 3), (1, 5), (3, 5), (5, 1)])
    def test_sampled_size_and_cond1_reading_match_naive_sweep(self, n, m, cond1, threads,
                                                              level):
        # L = 10 is past the cutoff, so its starts are seeded samples
        cfg = quick_config(lmax=10, exhaustive_cutoff=9, samples_per_L=60,
                           cond1_interpretation=cond1, threads=threads, check_level=level)
        assert reduced_envelope(Mask(n, m), cfg) == naive_envelope(Mask(n, m), cfg)

    @pytest.mark.parametrize("n,m,max_steps,level", [
        pytest.param(n, m, max_steps, level,
                     id=f"{n}-{m}-{max_steps}" + ("-full" if level == "full" else ""))
        for level in ("light", "full") for n, m, max_steps in ((1, 3, 6), (3, 3, 5), (1, 5, 4))
    ])
    def test_unresolved_runs_match_naive_sweep(self, n, m, max_steps, level):
        cfg = quick_config(lmax=9, exhaustive_cutoff=8, samples_per_L=30,
                           max_steps=max_steps, check_level=level)
        want = naive_envelope(Mask(n, m), cfg)
        for threads in (1, 3):
            got = reduced_envelope(Mask(n, m), cfg.with_overrides(threads=threads))
            assert got == want
        assert any(unresolved for _, _, _, unresolved, _, _ in got[0])

    @pytest.mark.parametrize("n,m,L,total", [(1, 1, 9, 300), (1, 3, 8, 100),
                                             (3, 3, 10, 700)])
    def test_budget_cut_matches_naive_sweep(self, n, m, L, total):
        # the budget cuts the size after ``total`` starts, past some
        # rotations of the necklaces below the cut
        cfg = quick_config(lmin=L, lmax=L, exhaustive_cutoff=L)
        want = naive_envelope(Mask(n, m), cfg, total)
        for threads in (1, 3):
            cut = cfg.with_overrides(threads=threads)
            assert reduced_envelope(Mask(n, m), cut, budget=total) == want

    @pytest.mark.parametrize("n,m", [(1, 3), (3, 3)])
    def test_budget_cut_through_unresolved_orbits_matches_naive_sweep(self, n, m):
        # an unresolved necklace below the cut counts only its rotations
        # below the cut
        cfg = quick_config(lmin=9, lmax=9, exhaustive_cutoff=9, max_steps=6)
        want = naive_envelope(Mask(n, m), cfg, 300)
        assert any(unresolved for _, _, _, unresolved, _, _ in want[0])
        for threads in (1, 3):
            cut = cfg.with_overrides(threads=threads)
            assert reduced_envelope(Mask(n, m), cut, budget=300) == want

    @pytest.mark.parametrize("origin", [0, 1])
    @pytest.mark.parametrize("n,m,threads", [(1, 1, 1), (1, 3, 1), (1, 5, 1), (1, 5, 2),
                                             (1, 11, 1), (3, 9, 2)])
    def test_full_level_matches_naive_sweep(self, n, m, threads, origin):
        # Even sizes hold self-complementary necklaces (ABAB... is a
        # rotation of its complement).  At origin 1, (1,1) and (1,3) pass
        # every size, (1,5) fails div3 at L = 7, and (1,11) and (3,9)
        # fail c4; at origin 0 every mask fails c8.
        cfg = quick_config(lmax=10, exhaustive_cutoff=10, check_level="full",
                           time_origin=origin, threads=threads)
        assert reduced_envelope(Mask(n, m), cfg) == naive_envelope(Mask(n, m), cfg)

    @pytest.mark.parametrize("origin", [0, 1])
    def test_full_level_budget_cut_between_class_members(self, origin):
        # 100 starts cut L = 8 inside the classes {1, 127}, {9, 111} and
        # {17, 119}: each is checked at its first necklace, and its second
        # one lies past the cut
        L, total = 8, 100
        cut = [(r, ac23._complement_partner(r, L)) for r in ac23._necklaces(L)]
        assert {(1, 127), (9, 111), (17, 119)} <= {(r, p) for r, p in cut if r < total <= p}
        cfg = quick_config(lmin=L, lmax=L, exhaustive_cutoff=L, check_level="full",
                           time_origin=origin)
        got = reduced_envelope(Mask(1, 1), cfg, budget=total)
        assert got == naive_envelope(Mask(1, 1), cfg, total)

    def test_scan_block_notes_only_unpassed_class_members(self):
        # L = 10 in one batch: only the uniform class {all A, all B} does
        # not pass, as two degenerate runs
        cfg = quick_config(lmin=10, lmax=10, exhaustive_cutoff=10)
        g = build_graph(Mask(1, 1), 10)
        assert ac23._scan_block(Mask(1, 1), g, cfg, 2**10, 1, 0) == (
            None, [(0, 0, "degenerate"), (1023, 1023, "degenerate")])

    def test_complement_partner(self):
        full = 2**9 - 1
        necklaces = set(ac23._necklaces(9))
        for r in necklaces:
            p = ac23._complement_partner(r, 9)
            assert p in necklaces
            assert p == min(rotate(r ^ full, k, 9) for k in range(9))

    @pytest.mark.parametrize("L,necklaces,starts,checks", [(10, 108, 112, 55),
                                                           (12, 352, 360, 179)])
    def test_two_runs_per_class_and_one_check_per_class(self, monkeypatch, L, necklaces,
                                                        starts, checks):
        # 56 and 180 complement classes (Gilbert & Riordan), each run as
        # its smaller necklace and that necklace's complement start; the
        # uniform class {all A, all B} is degenerate and never checked.
        # A light sweep runs lane readouts and checks them with
        # light_check.
        counts = Counter()
        step_lanes, light_check = ac23.step_lanes, ac23.light_check

        def counted_step_lanes(g, starts, *args):
            counts["starts"] += len(starts)
            return step_lanes(g, starts, *args)

        def counted_light_check(*args):
            counts["checks"] += 1
            return light_check(*args)

        monkeypatch.setattr(ac23, "step_lanes", counted_step_lanes)
        monkeypatch.setattr(ac23, "light_check", counted_light_check)
        verdict = classify_mask(Mask(1, 1), quick_config(lmin=L, lmax=L,
                                                         exhaustive_cutoff=L))
        assert verdict.tested[0]["pairs_run"] == necklaces
        assert counts == {"starts": starts, "checks": checks}

    def test_necklaces_are_the_smallest_string_rotations(self):
        for L in range(3, 13):
            smallest = []
            for bits in range(2**L):
                start = unpack(L, 0, bits)
                rotations = {start[k:] + start[:k] for k in range(L)}
                if min(sum(1 << v for v, ch in enumerate(r) if ch == "B")
                       for r in rotations) == bits:
                    smallest.append(bits)
            necklaces = ac23._necklaces(L)
            assert necklaces == tuple(smallest)
            # their rotations cover every start exactly once
            covered = Counter(x for r in necklaces
                              for x in {rotate(r, k, L) for k in range(L)})
            assert covered == Counter(range(2**L))

    def test_pairs_run_counts_one_pair_per_orbit(self):
        verdict = classify_mask(Mask(1, 1), quick_config(lmin=10, lmax=10,
                                                         exhaustive_cutoff=10))
        [block] = verdict.tested
        assert block["planned"] == block["tested"] + block["degenerate_skips"] == 1024
        assert block["pairs_run"] == 108
        sampled = classify_mask(Mask(1, 1), quick_config(lmin=9, lmax=9,
                                                         exhaustive_cutoff=8,
                                                         samples_per_L=30))
        assert sampled.tested[0]["pairs_run"] == 30


class TestLightSweepObjects:
    """A sweep and an extraction pair lane readouts and texts: no
    RunRecord and, at the light level, no IpfReport per pair.  At the
    full level only a pair that passes light and is not mirrored is
    checked by ``check_ipf``."""

    def test_light_classify_mask_builds_no_run_and_no_report(self, object_counts):
        verdict = classify_mask(Mask(1, 5), quick_config(lmax=10, exhaustive_cutoff=10))
        assert verdict.witness == {"L": 7, "start": "BABAAAA", "condition": "div3"}
        assert classify_mask(Mask(1, 3), quick_config(lmax=10, exhaustive_cutoff=8,
                                                      samples_per_L=20)).status == CORRECT_SO_FAR
        assert object_counts == {}

    def test_light_verdict_grid_builds_no_run_and_no_report(self, object_counts):
        grid = verdict_grid(5, 5, quick_config(lmax=8))
        assert grid.cells[(1, 5)].status == INCORRECT
        assert object_counts == {}

    def test_full_level_reports_only_on_pairs_that_are_not_mirrored(self, object_counts):
        # every pair of (1,3) that passes light is mirrored (ipf.mirrored)
        full = quick_config(lmax=10, exhaustive_cutoff=10, check_level="full")
        assert classify_mask(Mask(1, 3), full).status == CORRECT_SO_FAR
        assert list(rt.extraction_run_pairs(Mask(1, 3), full))
        assert object_counts == {}
        # (3,9)'s first failure at L=10 passes light but is not mirrored
        verdict = classify_mask(Mask(3, 9), replace(full, lmin=10))
        assert verdict.witness == {"L": 10, "start": "BAAABBAAAA", "condition": "c4"}
        assert object_counts == {"reports": 1}
        # a light-level extraction reads every pair's filled rows from its
        # recorded lanes
        object_counts.clear()
        pairs = list(rt.extraction_run_pairs(Mask(1, 1), quick_config(lmax=6)))
        assert object_counts == {} and pairs


def burnside_classes(L: int) -> int:
    """Binary necklaces of length L up to rotation and complement (OEIS
    A000013; Gilbert & Riordan, Illinois J. Math. 5, 1961):
    sum(phi(2d) * 2**(L/d) for d | L) / (2L)."""
    def phi(n):
        return sum(gcd(k, n) == 1 for k in range(1, n + 1))

    return sum(phi(2 * d) * 2 ** (L // d) for d in range(1, L + 1) if L % d == 0) // (2 * L)


def test_pair_starts_yield_one_start_per_rotation_and_complement_class():
    config = quick_config(lmax=16, exhaustive_cutoff=16)
    counts = []
    for L in range(3, 17):
        starts = [r for r, *_ in ac23.pair_starts(Mask(1, 1), L, config)]
        assert len(set(starts)) == len(starts)
        counts.append(len(starts))
    assert counts == [burnside_classes(L) for L in range(3, 17)] == [
        2, 4, 4, 8, 10, 20, 30, 56, 94, 180, 316, 596, 1096, 2068]


@pytest.mark.parametrize("L,total", [(10, None), (8, 100), (12, None), (12, 7)])
def test_pair_starts_shares_partition_the_plan(L, total):
    # exhaustive at L = 10, a budget cut at L = 8, sampled at L = 12:
    # share k takes every workers-th necklace (or sample) below the
    # total from the k-th on, whether it yields or not
    config = quick_config(lmax=12, exhaustive_cutoff=10, samples_per_L=30)
    if L <= config.exhaustive_cutoff:
        indices = [r for r in ac23._necklaces(L) if r < (total or 2**L)]
        partners = {r: ac23._complement_partner(r, L) for r in indices}
        kept = {r: None if p == r else p for r, p in partners.items() if p >= r}
    else:
        indices = list(range(total or config.samples_per_L))
        kept = dict.fromkeys(indices)
    plan = list(ac23.pair_starts(Mask(1, 3), L, config, total))
    assert [(index, partner) for index, _, partner in plan] == list(kept.items())
    for workers in range(1, 5):
        shares = [list(ac23.pair_starts(Mask(1, 3), L, config, total, k, workers))
                  for k in range(workers)]
        for k, share in enumerate(shares):
            assert [index for index, *_ in share] == [
                r for r in indices[k::workers] if r in kept]
        assert sorted(pair for share in shares for pair in share) == plan


def test_samples_follow_the_seeded_digest_formula():
    # each sample is the low L bits of sha256(f"{seed}:{n}:{m}:{L}:{index}"),
    # whatever the prefix hashed once per size
    for seed in (0, 1, 7, 123456789):
        for n, m in ((1, 1), (1, 3), (5, 9), (31, 17)):
            for L in (3, 11, 12, 20, 40):
                indices = [*range(12), 99, 1000, 123456]
                assert list(ac23._samples(seed, n, m, L, indices)) == [
                    int.from_bytes(hashlib.sha256(
                        f"{seed}:{n}:{m}:{L}:{index}".encode()).digest(), "big")
                    & ((1 << L) - 1) for index in indices]


def exit_at_once(item):
    os._exit(3)


def reaped(pid: int) -> bool:
    """Whether the child ``pid`` has been waited for already."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestForkedPool:
    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the workers forked, on two CPUs."""
        pids = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            pids.append(pid)
            return pid

        monkeypatch.setattr(ac23.os, "fork", recording_fork)
        monkeypatch.setattr(ac23.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        return pids

    @pytest.mark.parametrize("cpus", [{0, 5}, {3}])
    def test_pool_processes_are_capped_at_the_cpus(self, forks, monkeypatch, cpus):
        # eight batches on two CPUs: two processes, and the verdict of
        # one; on one CPU the batches still run in a forked worker
        monkeypatch.setattr(ac23.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert classify_mask(Mask(1, 5), quick_config(threads=8)).to_json_dict() == (
            classify_mask(Mask(1, 5), quick_config()).to_json_dict())
        assert len(forks) == len(cpus)
        grid = verdict_grid(5, 5, quick_config(lmax=6, threads=3))
        assert grid.csv_rows() == verdict_grid(5, 5, quick_config(lmax=6)).csv_rows()
        assert len(forks) == 2 * len(cpus)
        assert all(map(reaped, forks))

    def test_fewer_batches_than_cpus_start_one_process_each(self, forks, monkeypatch):
        monkeypatch.setattr(ac23.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        classify_mask(Mask(1, 3), quick_config(threads=3))
        assert len(forks) == 3 and all(map(reaped, forks))

    def test_grid_cells_come_back_in_grid_order(self, forks):
        seen = []
        grid = verdict_grid(9, 9, quick_config(lmax=6, threads=3),
                            on_cell=lambda v: seen.append((v.mask.n, v.mask.m)))
        assert seen == [(n, m) for n in range(1, 10, 2) for m in range(1, 10, 2)]
        assert grid.csv_rows() == verdict_grid(9, 9, quick_config(lmax=6)).csv_rows()
        assert len(forks) == 2 and all(map(reaped, forks))

    def test_a_worker_exception_reaches_the_caller(self, forks, monkeypatch):
        def failing_settle(*args):
            raise ValueError(f"no verdict in process {os.getpid()}")

        monkeypatch.setattr(ac23, "settle_pair", failing_settle)
        with pytest.raises(ValueError, match="no verdict in process") as raised:
            classify_mask(Mask(1, 3), quick_config(threads=2))
        assert type(raised.value) is ValueError
        assert str(raised.value) in {f"no verdict in process {pid}" for pid in forks}
        assert len(forks) == 2 and all(map(reaped, forks))

    def test_an_on_cell_exception_reaches_the_caller(self, forks):
        seen = []

        def on_cell(verdict):
            seen.append(verdict.mask)
            if len(seen) == 3:
                raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            verdict_grid(9, 9, quick_config(lmax=6, threads=3), on_cell=on_cell)
        assert seen == [Mask(1, 1), Mask(1, 3), Mask(1, 5)]
        assert len(forks) == 2 and all(map(reaped, forks))

    def test_a_worker_that_dies_is_reported(self, forks):
        with pytest.raises(ChildProcessError, match="exited before sending"):
            with ac23._mapper(2) as run_map:
                list(run_map(exit_at_once, range(4)))
        assert len(forks) == 2 and all(map(reaped, forks))

    def test_without_fork_the_builtin_map_runs(self, monkeypatch):
        monkeypatch.delattr(ac23.os, "fork")
        with ac23._mapper(3) as run_map:
            assert run_map is map
        assert classify_mask(Mask(1, 5), quick_config(threads=3)).to_json_dict() == (
            classify_mask(Mask(1, 5), quick_config()).to_json_dict())


class TestVerdictGrid:
    def test_small_grid(self):
        grid = verdict_grid(5, 5, quick_config(lmax=7, exhaustive_cutoff=7))
        assert set(grid.cells) == {(n, m) for n in (1, 3, 5) for m in (1, 3, 5)}
        assert grid.cells[(1, 1)].status == CORRECT_SO_FAR
        assert grid.cells[(1, 5)].status == INCORRECT
        assert grid.is_reflection_symmetric()

    def test_csv_rows(self):
        grid = verdict_grid(3, 3, quick_config(lmax=6))
        rows = grid.csv_rows()
        assert len(rows) == 4
        assert rows[0][:4] == [1, 1, 3, CORRECT_SO_FAR]

    def test_requires_odd_bounds(self):
        with pytest.raises(ValueError):
            verdict_grid(4, 4, quick_config())

    @pytest.mark.parametrize("bounds", [(-3, -3), (1, -1), (-1, 1)])
    def test_requires_bounds_of_at_least_one(self, bounds):
        with pytest.raises(ValueError, match="at least 1"):
            verdict_grid(*bounds, quick_config())

    def test_smallest_grid(self):
        grid = verdict_grid(1, 1, quick_config(lmax=6))
        assert set(grid.cells) == {(1, 1)}
        assert grid.cells[(1, 1)].status == CORRECT_SO_FAR

    def test_cr_annotations_decorate_json(self):
        grid = verdict_grid(3, 3, quick_config(lmax=6),
                            cr_annotations={(1, 3): 27})
        cells = {(c["mask"]["n"], c["mask"]["m"]): c
                 for c in grid.to_json_dict()["cells"]}
        assert cells[(1, 3)]["C_R"] == 27
        assert "C_R" not in cells[(1, 1)]

    def test_parallel_cells_match_serial(self):
        runs = []
        for threads in (1, 2):
            seen = []
            grid = verdict_grid(7, 7, quick_config(lmax=6, threads=threads),
                                on_cell=lambda v: seen.append((v.mask.n, v.mask.m)))
            runs.append((grid.to_json_dict(), seen))
        assert runs[0] == runs[1]
        assert runs[0][1] == [(n, m) for n in (1, 3, 5, 7) for m in (1, 3, 5, 7)]

    def test_real_pool_grid_json_matches_serial(self, monkeypatch):
        # a real pool capped at two processes: 25 cells in chunks of 4
        monkeypatch.setattr(ac23.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = quick_config(lmax=8)
        serial = verdict_grid(9, 9, cfg).to_json_dict()
        assert verdict_grid(9, 9, cfg.with_overrides(threads=3)).to_json_dict() == serial
        assert {cell["status"] for cell in serial["cells"]} == {CORRECT_SO_FAR, INCORRECT}

    # 9x9 holds (1,5) and (9,1), which fail on one graph at L = 7, where
    # (9,5) holds the same witness as a degenerate witness.
    SHARING_CONFIGS = {
        "light": quick_config(lmax=8),
        "full": quick_config(lmax=8, check_level="full"),
        "sampled": quick_config(lmax=10, exhaustive_cutoff=7, samples_per_L=8),
    }

    @pytest.fixture(scope="class")
    def cells_alone(self):
        """Each config's cells, classified one by one."""
        return {name: {(n, m): classify_mask(Mask(n, m), cfg).to_json_dict()
                       for n in range(1, 10, 2) for m in range(1, 10, 2)}
                for name, cfg in self.SHARING_CONFIGS.items()}

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", list(SHARING_CONFIGS))
    def test_shared_work_matches_cells_alone(self, cells_alone, name, threads):
        cfg = self.SHARING_CONFIGS[name].with_overrides(threads=threads)
        grid = verdict_grid(9, 9, cfg)
        assert {k: v.to_json_dict() for k, v in grid.cells.items()} == cells_alone[name]
        witness = grid.cells[(1, 5)].witness
        assert witness["L"] == 7 and grid.cells[(9, 1)].witness == witness
        block = next(b for b in grid.cells[(9, 5)].tested if b["L"] == 7)
        assert block["degenerate_witness"] == witness

    def test_reflected_graphs_are_scanned_apart(self):
        # C_11({1, 2, 5, 10}) and C_11({1, 6, 9, 10}) are mirror images (a
        # multiplier class, a = -1), but their smallest failing starts are
        # not rotations of each other, so a size with a witness is not shared
        cfg = quick_config(lmin=11, lmax=11, exhaustive_cutoff=11)
        masks = (Mask(1, 19), Mask(19, 1))
        alone = [classify_mask(mask, cfg) for mask in masks]
        memo = {}
        shared = [classify_mask(mask, cfg, memo=memo) for mask in masks]
        assert [v.to_json_dict() for v in shared] == [v.to_json_dict() for v in alone]
        assert [v.witness["start"] for v in shared] == ["BABBAAAAAAA", "BBABAAAAAAA"]

    @staticmethod
    def count_scans(monkeypatch) -> list:
        """Record the L of each ``_scan_size`` call."""
        calls = []
        scan_size = ac23._scan_size

        def counting(mask, g, *args):
            calls.append(g.node_count)
            return scan_size(mask, g, *args)

        monkeypatch.setattr(ac23, "_scan_size", counting)
        return calls

    def test_budget_cut_sizes_are_not_shared(self, monkeypatch):
        # the first 12 starts at L = 11 hold the witness of (19,1) (start
        # 11) but not that of (1,19) (start 13): v -> -v maps the whole
        # size onto itself, not a prefix of its starts
        cfg = quick_config(lmin=11, lmax=11, exhaustive_cutoff=11)
        masks = (Mask(1, 19), Mask(19, 1))
        alone = [classify_mask(mask, cfg, budget=12).to_json_dict() for mask in masks]
        assert [v["status"] for v in alone] == [CORRECT_SO_FAR, INCORRECT]
        calls = self.count_scans(monkeypatch)
        memo = {}
        shared = [classify_mask(mask, cfg, budget=12, memo=memo).to_json_dict()
                  for mask in masks]
        assert shared == alone
        assert calls == [11, 11]

    @pytest.mark.parametrize("max_steps", [Config().max_steps, 12])
    def test_multiplier_classes_share_exactly(self, max_steps):
        # Each size of each class of two or more connection sets of odd
        # masks <= 31, L <= 12: the first set is classified in a fresh
        # memo, so alone, and every later one alone and in that memo,
        # where it reads the first set's scan if it may.  Equal results
        # for every set give the same for every ordered pair.  The sets of
        # a class differ in witness starts (both max_steps) or in first
        # unresolved starts (max_steps 12).
        varied = 0
        for L in range(3, 13):
            cfg = quick_config(lmin=L, lmax=L, exhaustive_cutoff=12, max_steps=max_steps)
            by_set = {}
            for n in range(1, 32, 2):
                for m in range(1, 32, 2):
                    by_set.setdefault(connection_set(Mask(n, m), L), Mask(n, m))
            classes = {}
            for S, mask in by_set.items():
                classes.setdefault(multiplier_orbit(S, L), []).append(mask)
            for first, *rest in classes.values():
                if not rest:
                    continue
                memo = {}
                alone = [classify_mask(first, cfg, memo=memo).to_json_dict()]
                for mask in rest:
                    alone.append(classify_mask(mask, cfg).to_json_dict())
                    assert classify_mask(mask, cfg, memo=memo).to_json_dict() == alone[-1]
                varied += len({((v["witness"] or {}).get("start"),
                                v["tested"][-1].get("first_unresolved")) for v in alone}) > 1
        assert varied

    def test_one_scan_per_multiplier_class_and_call(self, monkeypatch):
        # a size with a witness or an unresolved run is scanned for its own
        # connection set, any other once for its multiplier class
        # (the benchmark grid, twice: the memo lives for one call)
        calls = self.count_scans(monkeypatch)
        cfg = quick_config(lmax=8)
        for _ in range(2):
            calls.clear()
            grid = verdict_grid(15, 15, cfg)
            sets, scanned = set(), set()
            for verdict in grid.cells.values():
                for block in verdict.tested:
                    if "mode" not in block:
                        continue
                    L = block["L"]
                    S = connection_set(verdict.mask, L)
                    alone = (block["unresolved"] or "degenerate_witness" in block
                             or (verdict.witness or {}).get("L") == L)
                    sets.add((L, S))
                    scanned.add((L, S) if alone else multiplier_orbit(S, L))
            assert len(calls) == len(scanned) < len(sets)
            assert len(calls) <= 41

    def test_one_partner_search_per_necklace_and_call(self, monkeypatch):
        # the benchmark grid, twice: each necklace of a scanned size finds
        # its complement partner once in a call, and no table outlives it
        found = []
        complement_partner = ac23._complement_partner

        def counting(r, L):
            found.append((r, L))
            return complement_partner(r, L)

        monkeypatch.setattr(ac23, "_complement_partner", counting)
        counts = []
        for _ in range(2):
            found.clear()
            verdict_grid(15, 15, quick_config(lmax=8))
            assert len(set(found)) == len(found)
            counts.append(len(found))
        necklaces = sum(len(ac23._necklaces(L)) for L in range(3, 9))
        assert counts[0] == counts[1] <= necklaces == 88

    def test_sizes_read_whole_from_the_memo_and_pairs_in_two_lanes(self, monkeypatch):
        # the benchmark grid: each size is tested for weak computability
        # and keyed by its multiplier class once per call, and a later cell
        # reads it whole from the memo; each batch of the pair walk runs
        # its pairs in order, each start in one lane, its complement in
        # the next
        seen = {"weak": [], "class": []}
        weak, class_key = ac23.mask_weak_computable, ac23._multiplier_class
        batches, pulled = [], []
        step_lanes, pair_starts = ac23.step_lanes, ac23.pair_starts

        def counting_weak(mask, L, S=None):
            seen["weak"].append((L, S))
            return weak(mask, L, S)

        def counting_class(S, L):
            seen["class"].append((L, S))
            return class_key(S, L)

        def recording_lanes(g, starts, *args):
            batches.append((g.node_count, starts))
            return step_lanes(g, starts, *args)

        def recording_starts(*args, **kwargs):
            for pair in pair_starts(*args, **kwargs):
                pulled.append(pair)
                yield pair

        monkeypatch.setattr(ac23, "mask_weak_computable", counting_weak)
        monkeypatch.setattr(ac23, "_multiplier_class", counting_class)
        monkeypatch.setattr(ac23, "step_lanes", recording_lanes)
        monkeypatch.setattr(ac23, "pair_starts", recording_starts)
        grid = verdict_grid(15, 15, quick_config(lmax=8))
        for verdict in grid.cells.values():
            for block in verdict.tested:
                assert block["degenerate_L"] == degenerate_at(verdict.mask, block["L"])
        for name, calls in seen.items():
            assert calls and max(Counter(calls).values()) == 1, name
        walked = []
        for L, starts in batches:
            assert 0 < len(starts) <= 2 * ac23._PAIRS_PER_LANE_RUN
            assert starts[1::2] == [bits ^ ((1 << L) - 1) for bits in starts[::2]]
            walked += starts[::2]
        assert walked == [bits for _, bits, _ in pulled]

    def test_sampled_sizes_scan_once_per_mask(self, monkeypatch):
        # (1,1) and (2049,1) share S = {1, 12} at L = 13
        a, b = Mask(1, 1), Mask(2049, 1)
        assert connection_set(a, 13) == connection_set(b, 13) == {1, 12}
        calls = self.count_scans(monkeypatch)
        for cutoff, scans in ((12, 2), (13, 1)):
            cfg = quick_config(lmin=13, lmax=13, exhaustive_cutoff=cutoff, samples_per_L=6)
            alone = [classify_mask(mask, cfg).to_json_dict() for mask in (a, b)]
            calls.clear()
            memo = {}
            shared = [classify_mask(mask, cfg, memo=memo).to_json_dict() for mask in (a, b)]
            assert len(calls) == scans
            assert shared == alone

    def test_memo_keeps_only_whole_exhaustive_scans(self):
        # sampled sizes above the cutoff, and a budget that cuts L = 8
        # at 52 starts: neither is read back by a later cell, so neither
        # is kept
        cfg = quick_config(lmax=12, exhaustive_cutoff=10, samples_per_L=20)
        memo = {}
        for mask in (Mask(1, 1), Mask(1, 3), Mask(3, 1), Mask(3, 3)):
            classify_mask(mask, cfg, memo=memo)
        assert classify_mask(Mask(5, 3), cfg, budget=300, memo=memo).budget_exhausted
        sizes = set()
        for key in memo:
            if key != "partners":
                assert len(key) == 2 and key[0] <= cfg.exhaustive_cutoff, key
                assert isinstance(key[1], (frozenset, tuple))
                sizes.add(key[0])
        assert sizes == set(range(3, 11))

    def test_resume_rows_short_circuit(self):
        cfg = quick_config(lmax=6)
        full = verdict_grid(3, 3, cfg)
        partial = {(1, 1): full.cells[(1, 1)], (1, 3): full.cells[(1, 3)]}
        seen = []
        resumed = verdict_grid(3, 3, cfg, resume_rows=partial,
                               on_cell=lambda v: seen.append((v.mask.n, v.mask.m)))
        assert seen == [(3, 1), (3, 3)]
        assert {k: v.status for k, v in resumed.cells.items()} == {
            k: v.status for k, v in full.cells.items()
        }


class TestStartEncoding:
    # a start's B bits spell it with dynamics.unpack: bit v set, node v is B
    def test_b_bits_spell_the_start(self):
        assert unpack(3, 0, 0) == "AAA"
        assert unpack(3, 0, 5) == "BAB"
        assert unpack(3, 0, 2) == "ABA"

    def test_round_trip(self):
        rng = random.Random(41)
        for _ in range(50):
            L = rng.randint(3, 16)
            bits = rng.getrandbits(L)
            s = unpack(L, 0, bits)
            back = sum(1 << v for v, ch in enumerate(s) if ch == "B")
            assert back == bits
