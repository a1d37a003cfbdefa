import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extraction import lanes_of, pair_codes
from trine.ac23 import (Mask, _complement_partner, _samples, build_graph, degenerate_at,
                        iter_pairs, mask_weak_computable, pair_starts, settle_pair)
from trine.config import Config
from trine.dynamics import run_to_mirror, unpack
from trine.errors import (
    DimensionMismatch,
    IncompatibleTables,
    RtParseError,
    UnconfiguredStepTable,
    UnverifiedRuns,
)
from trine.graph import complement
from trine.ipf import CHECK_LEVELS, check_ipf, filled_rows
from trine import rt
from trine.rt import (
    ALL_COMBOS_STEP_TABLE,
    SUBTABLE_TARGETS,
    ResolutionTable,
    build_1_2k1,
    canonical_key,
    classify,
    coincidence_matrix,
    compatibility,
    expand_subtables,
    extract_rows,
    extraction_run_pairs,
    format_table,
    includes,
    intersect,
    kind,
    parse_step_table,
    parse_table,
    reflect,
    s_counts,
    substitute_row,
    union,
)

# the six substitution columns, one mapping per sub-table target
FIG_GRID = {
    "=0":  {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
    "=1":  {0: 1, 1: 2, 2: 0, 3: 5, 4: 3, 5: 4},
    "=2":  {0: 2, 1: 0, 2: 1, 3: 4, 4: 5, 5: 3},
    "=-0": {0: 3, 1: 4, 2: 5, 3: 0, 4: 1, 5: 2},
    "=-1": {0: 4, 1: 5, 2: 3, 3: 2, 4: 0, 5: 1},
    "=-2": {0: 5, 1: 3, 2: 4, 3: 1, 4: 2, 5: 0},
}


def random_table(rng: random.Random, width=None, max_rows=10) -> ResolutionTable:
    n = width or rng.randint(2, 5)
    rows = {
        tuple(rng.randrange(6) for _ in range(n))
        for _ in range(rng.randint(0, max_rows))
    }
    return ResolutionTable(n, rows)


class TestSubstitution:
    def test_reproduces_symmetry_grid(self):
        for target, mapping in FIG_GRID.items():
            for value, expected in mapping.items():
                assert substitute_row(range(6), target)[value] == expected

    def test_identity_target(self):
        assert substitute_row(range(6), "=0") == tuple(range(6))

    def test_bar_toggle_target(self):
        # "=-0" flips the bar and keeps digits
        assert substitute_row(range(6), "=-0") == (3, 4, 5, 0, 1, 2)

    def test_group_of_order_six(self):
        maps = {t: substitute_row(range(6), t) for t in SUBTABLE_TARGETS}
        all_maps = set(maps.values())
        assert len(all_maps) == 6
        # closure and inverses by enumeration
        for t1 in SUBTABLE_TARGETS:
            assert sorted(maps[t1]) == list(range(6))  # bijective
            inverse_found = False
            for t2 in SUBTABLE_TARGETS:
                composed = tuple(maps[t2][maps[t1][v]] for v in range(6))
                assert composed in all_maps
                if composed == maps["=0"]:
                    inverse_found = True
            assert inverse_found

    def test_composing_shift_one_twice_is_shift_two(self):
        one_twice = substitute_row(substitute_row(range(6), "=1"), "=1")
        assert one_twice == substitute_row(range(6), "=2")

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            substitute_row((0,), "=7")


class TestCanonicalKey:
    def test_worked_example(self):
        # row (-1, 2, 0, -2, 1): transfer the zero column to the end,
        # read base six
        row = (4, 2, 0, 5, 1)
        assert canonical_key(row) == 2782

    def test_zero_row(self):
        assert canonical_key((0,) * 7) == 0

    @given(st.integers(2, 6), st.data())
    def test_injective(self, n, data):
        rows = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, 5)] * n), min_size=2, max_size=8, unique=True
            )
        )
        keys = [canonical_key(tuple(r)) for r in rows]
        assert len(set(keys)) == len(keys)


class TestResolutionTable:
    def test_normalization(self):
        t = ResolutionTable(3, [(1, 0, 0), (0, 0, 0), (1, 0, 0)])
        assert t.row_count == 2
        assert t.rows[0] == (0, 0, 0)  # canonical order

    def test_validation(self):
        with pytest.raises(ValueError):
            ResolutionTable(3, [(1, 2)])
        with pytest.raises(ValueError):
            ResolutionTable(2, [(6, 0)])
        with pytest.raises(ValueError):
            ResolutionTable(1)
        with pytest.raises(ValueError):
            ResolutionTable(5, [], mask=Mask(1, 3))  # width mismatch

    def test_sorted_by_key(self):
        rng = random.Random(1)
        for _ in range(20):
            t = random_table(rng)
            keys = [canonical_key(r) for r in t.rows]
            assert keys == sorted(keys)


class TestExpand:
    def test_identity_projection(self):
        rng = random.Random(2)
        t = random_table(rng, width=4)
        expanded = expand_subtables(t)
        assert expanded["=0"].rows == t.rows

    def test_preserves_row_count(self):
        rng = random.Random(3)
        for _ in range(20):
            t = random_table(rng)
            for sub in expand_subtables(t).values():
                assert sub.row_count == t.row_count

    def test_single_row_expansions_distinct(self):
        t = ResolutionTable(3, [(0, 1, 2)])
        rows = {sub.rows[0] for sub in expand_subtables(t).values()}
        assert len(rows) == 6

    @pytest.mark.parametrize("target", SUBTABLE_TARGETS[1:])
    def test_only_the_zero_subtable_expands(self, target):
        sub = expand_subtables(ResolutionTable(3, [(0, 1, 2)]))[target]
        assert sub.subtable == target
        with pytest.raises(ValueError, match="sub-table"):
            expand_subtables(sub)


class TestClassify:
    def test_small(self):
        assert classify(ResolutionTable(3, [(1, 2, 4), (1, 1, 1)])) == "Small"

    def test_middle(self):
        assert classify(ResolutionTable(3, [(1, 0, 4)])) == "Middle"

    def test_full(self):
        assert classify(ResolutionTable(3, [(1, 5, 4)])) == "Full"
        assert classify(ResolutionTable(3, [(3, 1, 1)])) == "Full"

    def test_empty_is_small(self):
        assert classify(ResolutionTable(3)) == "Small"

    def test_value_set_image_under_substitution(self):
        rng = random.Random(4)
        for _ in range(20):
            t = random_table(rng)
            for target, sub in expand_subtables(t).items():
                expected = substitute_row(t.value_set(), target)
                assert sub.value_set() == frozenset(expected)


class TestSCounts:
    def test_empty(self):
        assert s_counts(ResolutionTable(4)) == (0,) * 12

    def test_single_uniform_row(self):
        sc = s_counts(ResolutionTable(5, [(1, 1, 1, 1, 1)]))
        assert sc.s0_p1 == 1
        assert sc.s_p1 == 4

    def test_total_is_cells(self):
        rng = random.Random(5)
        for _ in range(20):
            t = random_table(rng)
            assert sum(s_counts(t)) == t.N * t.row_count


class TestKind:
    def test_builder_table_first_kind(self):
        t = build_1_2k1(2, ALL_COMBOS_STEP_TABLE)
        assert kind(t) == "CompletelyCorrect1st"
        sc = s_counts(t)
        assert sc.s0_p1 == 2 ** (t.N - 1)

    def test_zero_in_zero_column_not_completely(self):
        t = ResolutionTable(3, [(0, 1, 1)])
        assert kind(t) == "NotCompletelyCorrect"

    def test_second_kind(self):
        # zero column only +-1, but sign rows do not enumerate
        t = ResolutionTable(3, [(1, 1, 1), (4, 2, 2)])
        assert kind(t) == "CompletelyCorrect2nd"


class TestSetOps:
    def test_known_counts(self):
        a = ResolutionTable(3, [(1, 1, 1), (1, 2, 2), (4, 1, 2)])
        b = ResolutionTable(3, [(1, 1, 1), (4, 1, 2), (2, 0, 0)])
        assert intersect(a, b).row_count == 2
        assert union(a, b).row_count == 4
        assert not includes(a, b)
        assert includes(union(a, b), a)
        assert a != b
        assert a == a

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect(ResolutionTable(3), ResolutionTable(4))
        with pytest.raises(DimensionMismatch):
            includes(ResolutionTable(3), ResolutionTable(4))

    def test_lattice_axioms(self):
        rng = random.Random(6)
        for _ in range(300):
            n = rng.randint(2, 4)
            a, b, c = (random_table(rng, width=n) for _ in range(3))
            assert intersect(a, a) == a
            assert union(a, a) == a
            assert intersect(a, b) == intersect(b, a)
            assert union(a, b) == union(b, a)
            assert intersect(a, intersect(b, c)) == intersect(intersect(a, b), c)
            assert union(a, union(b, c)) == union(union(a, b), c)
            assert union(a, intersect(a, b)) == a
            assert intersect(a, union(a, b)) == a

    def test_mask_tag_merging(self):
        t = build_1_2k1(2, ALL_COMBOS_STEP_TABLE)
        r = reflect(t)
        assert intersect(t, r).mask is None
        assert intersect(t, t).mask == t.mask


class TestCompatibility:
    def test_single_table_is_its_own_integral(self):
        t = ResolutionTable(3, [(1, 1, 1)])
        integral = compatibility([t])
        assert integral.table == t
        assert integral.steps == [(t.tag(), 1)]

    def test_compatible_pair_folds(self):
        a = ResolutionTable(4, [(1, 1, 1, 1), (1, 1, 1, 4)])
        b = ResolutionTable(4, [(1, 1, 1, 2)])
        integral = compatibility([a, b])
        assert integral.table.row_count == 3
        # largest first
        assert integral.steps[0][1] == 2

    def test_incompatible_pair_raises(self):
        # the tail of (0,1,1) appears in the "=1" sub-table of {(2,0,0)}
        a = ResolutionTable(3, [(0, 1, 1)])
        b = ResolutionTable(3, [(2, 0, 0)])
        with pytest.raises(IncompatibleTables) as err:
            compatibility([a, b])
        assert err.value.target in SUBTABLE_TARGETS

    def test_zero_column_is_ignored_in_the_check(self):
        # same tails, different zero column: still one compatible set
        a = ResolutionTable(3, [(1, 1, 1)])
        b = ResolutionTable(3, [(4, 1, 1)])
        integral = compatibility([a, b])
        assert integral.table.row_count == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compatibility([ResolutionTable(3), ResolutionTable(4)])


class TestCoincidence:
    def test_equal_tables(self):
        a = ResolutionTable(3, [(1, 1, 1)])
        matrix = coincidence_matrix([a, ResolutionTable(3, [(1, 1, 1)])])
        assert matrix.cells[(0, 1)]["relation"] == "equal"

    def test_inclusion(self):
        a = ResolutionTable(3, [(1, 1, 1), (1, 2, 2)])
        b = ResolutionTable(3, [(1, 1, 1)])
        matrix = coincidence_matrix([a, b])
        assert matrix.cells[(0, 1)]["relation"] == "includes_ij"
        assert coincidence_matrix([b, a]).cells[(0, 1)]["relation"] == "includes_ji"

    def test_identical_intersections_share_a_group(self):
        shared = (1, 1, 1)
        a = ResolutionTable(3, [shared, (1, 2, 2)])
        b = ResolutionTable(3, [shared, (2, 0, 0)])
        c = ResolutionTable(3, [shared, (0, 2, 1)])
        matrix = coincidence_matrix([a, b, c])
        off_diagonal = [cell for (i, j), cell in matrix.cells.items() if i != j]
        assert {cell["group"] for cell in off_diagonal} == {1}
        assert all(cell["intersection_cr"] == 1 for cell in off_diagonal)

    def test_table_equal_to_an_intersection_is_grouped(self):
        # a == b & c shows up as the diagonal cell of a sharing a group
        # with the (b, c) cell
        a = ResolutionTable(3, [(1, 1, 1)])
        b = ResolutionTable(3, [(1, 1, 1), (2, 2, 2)])
        c = ResolutionTable(3, [(1, 1, 1), (0, 0, 0)])
        matrix = coincidence_matrix([a, b, c])
        assert matrix.cells[(0, 0)]["group"] is not None
        assert matrix.cells[(0, 0)]["group"] == matrix.cells[(1, 2)]["group"]

    def test_csv_rows(self):
        a = ResolutionTable(3, [(1, 1, 1)])
        b = ResolutionTable(3, [(2, 2, 2)])
        rows = coincidence_matrix([a, b]).csv_rows()
        assert ["<N=3>", "<N=3>", "intersect", 0, ""] in rows
        assert len(rows) == 3  # two diagonal cells plus the pair


class TestBuilder:
    def test_unconfigured(self):
        with pytest.raises(UnconfiguredStepTable):
            build_1_2k1(2)
        with pytest.raises(UnconfiguredStepTable):
            build_1_2k1(2, {0: (1, 2, 4)})  # incomplete

    def test_base_case(self):
        t = build_1_2k1(1, ALL_COMBOS_STEP_TABLE)
        assert t.N == 3
        assert t.row_count == 9
        assert t.mask == Mask(1, 1)
        assert t.experimental

    def test_row_count_triples(self):
        previous = build_1_2k1(1, ALL_COMBOS_STEP_TABLE)
        for k in range(2, 6):
            current = build_1_2k1(k, ALL_COMBOS_STEP_TABLE)
            assert current.row_count == 3 * previous.row_count
            assert current.N == k + 2
            assert current.mask == Mask(1, 2**k - 1)
            previous = current

    def test_first_kind_through_k5(self):
        for k in range(1, 6):
            t = build_1_2k1(k, ALL_COMBOS_STEP_TABLE)
            assert kind(t) == "CompletelyCorrect1st", k

    def test_known_row_count_for_1_3(self):
        assert build_1_2k1(2, ALL_COMBOS_STEP_TABLE).row_count == 27

    def test_zero_column_fractal(self):
        # +1 exactly on rows whose branch path avoided the middle value
        t = build_1_2k1(3, ALL_COMBOS_STEP_TABLE)
        for row in t.rows:
            expected = 1 if all(v in (1, 4) for v in row[1:]) else 4
            assert row[0] == expected

    def test_parse_step_table(self):
        data = {tok: ["1", "2", "-1"] for tok in ("0", "1", "2", "-0", "-1", "-2")}
        table = parse_step_table(data)
        assert table[0] == (1, 2, 4)
        with pytest.raises(RtParseError):
            parse_step_table({"0": ["1", "2"]})
        with pytest.raises(RtParseError):
            parse_step_table({"0": ["1", "2", "-1"]})  # misses values

    def test_bad_k(self):
        with pytest.raises(ValueError):
            build_1_2k1(0, ALL_COMBOS_STEP_TABLE)


class TestReflect:
    def test_needs_mask(self):
        with pytest.raises(ValueError):
            reflect(ResolutionTable(3, [(1, 1, 1)]))

    def test_double_reflection_is_identity(self):
        t = build_1_2k1(2, ALL_COMBOS_STEP_TABLE)
        assert reflect(reflect(t)) == t
        assert reflect(reflect(t)).mask == t.mask

    def test_reflection_retags(self):
        t = build_1_2k1(2, ALL_COMBOS_STEP_TABLE)
        r = reflect(t)
        assert r.mask == Mask(3, 1)
        assert r.N == t.N

    @pytest.mark.parametrize("target", SUBTABLE_TARGETS)
    def test_reflection_keeps_the_subtable(self, target):
        sub = expand_subtables(build_1_2k1(2, ALL_COMBOS_STEP_TABLE))[target]
        r = reflect(sub)
        assert r.subtable == target
        # substitution acts on each value alone, so it commutes with reflection
        assert r == expand_subtables(reflect(build_1_2k1(2, ALL_COMBOS_STEP_TABLE)))[target]

    def test_symmetric_mask_permutation_involution(self):
        rows = [(1, 0, 2), (4, 5, 3)]
        t = ResolutionTable(3, rows, mask=Mask(1, 1))
        assert reflect(reflect(t)) == t


def own_pairs(mask, cfg):
    """Every passing pair of the walk, each start recorded with its own
    complement and checked at the full level: every start up to the
    cutoff, the seeded samples past it."""
    pairs = []
    for L in range(cfg.lmin, cfg.lmax + 1):
        if degenerate_at(mask, L):
            continue
        g = build_graph(mask, L)
        starts = (range(2**L) if L <= cfg.exhaustive_cutoff else
                  list(_samples(cfg.seed, mask.n, mask.m, L, range(cfg.samples_per_L))))
        for bits in starts:
            start = unpack(L, 0, bits)
            pair = (run_to_mirror(g, start), run_to_mirror(g, complement(start)))
            if pair[0].degenerate or pair[1].degenerate:
                continue
            report = check_ipf(lanes_of(*pair), L, level="full")
            if report.passed:
                pairs.append(pair_codes(pair))
    return pairs


class TestExtraction:
    def test_empty_input(self):
        t = extract_rows(Mask(1, 3), [])
        assert t.row_count == 0
        assert t.experimental
        assert t.hypothesis == rt.EXTRACTION_HYPOTHESIS

    def test_deterministic(self, ring3):
        pair = (run_to_mirror(ring3, "ABA"), run_to_mirror(ring3, "BAB"))
        a = extract_rows(Mask(1, 1), [pair_codes(pair)])
        b = extract_rows(Mask(1, 1), [pair_codes(pair)])
        assert a == b

    def test_fixture_rows(self, ring3):
        pair = (run_to_mirror(ring3, "ABA"), run_to_mirror(ring3, "BAB"))
        t = extract_rows(Mask(1, 1), [pair_codes(pair)])
        assert t.N == 3
        assert t.row_count > 0
        # the center column records only its own fill origin
        assert {row[0] for row in t.rows} <= {0, 3}

    def test_unverified_runs_rejected(self):
        # at time origin 0 a mirrored pair fails [8], and (1,3) holds no
        # other passing pair up to L = 8: the walk finds no evidence
        cfg = Config(lmax=8, check_level="full", time_origin=0)
        with pytest.raises(UnverifiedRuns):
            list(extraction_run_pairs(Mask(1, 3), cfg))

    @pytest.mark.parametrize("level", ["full", "light"])
    def test_each_extracted_pair_is_read_once(self, monkeypatch, level):
        # the lanes record the skeletons at both levels, and no run is
        # walked again; at either level every passing pair of (1,3) is
        # mirrored: its filled rows come from the run's skeleton text
        # alone, with no report and no filled_rows call, from rt or
        # from within ipf
        from trine import ac23, dynamics, ipf

        calls = Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(ac23, "check_ipf")
        count(rt, "filled_rows")
        count(rt, "mirrored_filled")
        count(ipf, "filled_rows")
        count(dynamics, "_walk")
        cfg = Config(lmax=8, exhaustive_cutoff=8, samples_per_L=0, check_level=level)
        extracted = list(extraction_run_pairs(Mask(1, 3), cfg))
        assert extract_rows(Mask(1, 3), extracted).row_count > 0
        # once per distinct node skeleton, not once per node
        assert set(calls) == {"mirrored_filled"}
        assert calls["mirrored_filled"] < sum(L for _, L, _ in extracted) // 2

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (3, 1), (3, 3)])
    def test_orbit_representatives_give_the_table_of_every_start(self, n, m):
        mask = Mask(n, m)
        cfg = Config(lmax=8, exhaustive_cutoff=8, samples_per_L=0, check_level="full")
        every_start = own_pairs(mask, cfg)
        reduced = list(extraction_run_pairs(mask, cfg))
        # one pair per complement class, standing for the class's other
        # necklace too where the two differ
        assert len(reduced) < len(every_start)
        assert any(swapped for _, _, swapped in reduced)
        assert (format_table(extract_rows(mask, reduced))
                == format_table(extract_rows(mask, every_start)))

    def test_sampled_sizes_add_no_flipped_rows(self):
        mask = Mask(1, 3)
        cfg = Config(lmax=10, exhaustive_cutoff=7, samples_per_L=40, check_level="full")
        reduced = list(extraction_run_pairs(mask, cfg))
        sampled = [item for item in reduced if item[1] > 7]
        assert len(sampled) == len(own_pairs(mask, replace(cfg, lmin=8))) > 0
        assert not any(swapped for _, _, swapped in sampled)
        assert (format_table(extract_rows(mask, reduced))
                == format_table(extract_rows(mask, own_pairs(mask, cfg))))

    @pytest.mark.parametrize("level", CHECK_LEVELS)
    def test_self_complementary_pairs_hold_their_flipped_rows(self, level):
        # extraction sets ``swapped`` on every exhaustive pair: when the
        # complement of necklace r is a rotation of r, the swapped pair is
        # the pair rotated, so the pair's rows are closed under the bar
        # flip and the flipped rows add none
        cfg = Config(lmax=10, exhaustive_cutoff=10, check_level=level)
        closed = 0
        for n in range(1, 16, 2):
            for m in range(1, 16, 2):
                mask = Mask(n, m)
                for L in range(4, 11, 2):  # odd sizes hold no such class
                    if degenerate_at(mask, L) or not mask_weak_computable(mask, L):
                        continue
                    g = build_graph(mask, L)
                    pairs = iter_pairs(g, pair_starts(mask, L, cfg), cfg.max_steps, True)
                    for _, bits, lanes in pairs:
                        if (_complement_partner(bits, L) != bits
                                or settle_pair(g, cfg, lanes) is not None):
                            continue
                        codes = rt.slot_codes(filled_rows(lanes))
                        rows = set(extract_rows(mask, [(codes, L, False)]).rows)
                        flipped = {tuple((v + 3) % 6 for v in row) for row in rows}
                        assert rows and rows == flipped
                        closed += 1
        assert closed > 0

    def test_search_driver_skips_bad_pairs(self):
        cfg = Config(lmin=5, lmax=7, exhaustive_cutoff=7, samples_per_L=0,
                     check_level="full")
        pairs = list(extraction_run_pairs(Mask(1, 5), cfg))
        # the incorrect mask still has verified pairs; none raise
        table = extract_rows(Mask(1, 5), pairs)
        assert table.row_count > 0


class TestSerialization:
    def test_round_trip_bytes(self):
        rng = random.Random(7)
        for _ in range(30):
            t = random_table(rng)
            text = format_table(t)
            assert format_table(parse_table(text)) == text

    def test_round_trip_tags(self):
        t = build_1_2k1(2, ALL_COMBOS_STEP_TABLE)
        back = parse_table(format_table(t))
        assert back == t
        assert back.mask == t.mask
        assert back.experimental == t.experimental
        assert back.hypothesis == t.hypothesis

    def test_header_content(self):
        t = build_1_2k1(2, ALL_COMBOS_STEP_TABLE)
        header = format_table(t).splitlines()[0]
        assert header.startswith("N=4 mask=1,3 columns=0,-1,1,2 subtable==0")
        assert "[EXPERIMENTAL]" in header

    def test_row_tokens(self):
        t = ResolutionTable(3, [(3, 4, 5), (0, 1, 2)])
        lines = format_table(t).splitlines()
        assert lines[1] == "0,1,2"
        assert lines[2] == "-0,-1,-2"

    def test_parse_errors(self):
        with pytest.raises(RtParseError):
            parse_table("")
        with pytest.raises(RtParseError):
            parse_table("mask=1,3\n")  # no N
        with pytest.raises(RtParseError):
            parse_table("N=3 what=ever\n")
        with pytest.raises(RtParseError):
            parse_table("N=3\n1,2,x\n")
        for tag in ("1;3", "1,x", "0,3"):
            with pytest.raises(RtParseError):
                parse_table(f"N=3 mask={tag}\n")
        for target in ("foo", "", "=3", "0", "=+1"):
            with pytest.raises(RtParseError, match="sub-table"):
                parse_table(f"N=3 subtable={target}\n")

    @pytest.mark.parametrize("target", SUBTABLE_TARGETS)
    def test_round_trip_subtable(self, target):
        sub = expand_subtables(build_1_2k1(2, ALL_COMBOS_STEP_TABLE))[target]
        text = format_table(sub)
        assert f"subtable={target} " in text
        assert parse_table(text).subtable == target
        assert format_table(parse_table(text)) == text

    def test_save_load(self, tmp_path):
        t = build_1_2k1(1, ALL_COMBOS_STEP_TABLE)
        path = tmp_path / "t.rt"
        rt.save_table(t, path)
        assert rt.load_table(path) == t

    def test_scounts_csv_row(self):
        t = build_1_2k1(2, ALL_COMBOS_STEP_TABLE)
        row = rt.scounts_csv_row(t)
        assert row[:6] == [1, 3, 4, 27, "Small", "CompletelyCorrect1st"]
        assert len(row) == len(rt.SCOUNTS_CSV_COLUMNS)
