import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphgen import assert_same_graph, checked_circulant, random_mixed_graph
from trine.ac23 import Mask, build_graph, mask_weak_computable
from trine.errors import GraphFormatError
from trine.graph import (
    MixedGraph,
    complement,
    super_weak_computable,
    transliterate,
    weak_computable,
)

colorings = st.text(alphabet="ABC", min_size=0, max_size=24)


def test_transliterate_definition():
    assert transliterate("ABA") == "ACA"
    assert transliterate("AAAA") == "AAAA"
    assert transliterate("BC") == "CB"


def test_complement_definition():
    assert complement("ABA") == "BAB"
    assert complement("CCC") == "CCC"
    assert complement("AB") == "BA"


@given(colorings)
def test_transliterate_is_involution(c):
    assert transliterate(transliterate(c)) == c


@given(colorings)
def test_complement_is_involution(c):
    assert complement(complement(c)) == c


def test_recolorings_exhaustive_small():
    # all colorings of up to 4 nodes, checked outright
    from itertools import product

    for n in range(1, 5):
        for combo in product("ABC", repeat=n):
            c = "".join(combo)
            assert transliterate(transliterate(c)) == c
            assert complement(complement(c)) == c


class TestConstruction:
    def test_rejects_loop(self):
        with pytest.raises(GraphFormatError, match="loop"):
            MixedGraph(2, directed=[(0, 0)])
        with pytest.raises(GraphFormatError, match="loop"):
            MixedGraph(2, undirected=[(1, 1)])

    def test_rejects_duplicates(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            MixedGraph(3, directed=[(0, 1), (0, 1)])
        with pytest.raises(GraphFormatError, match="duplicate"):
            MixedGraph(3, undirected=[(0, 1), (1, 0)])

    def test_rejects_directed_undirected_overlap(self):
        with pytest.raises(GraphFormatError, match="both"):
            MixedGraph(3, directed=[(0, 1)], undirected=[(0, 1)])
        with pytest.raises(GraphFormatError, match="both"):
            MixedGraph(3, directed=[(1, 0)], undirected=[(0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError, match="missing node"):
            MixedGraph(2, directed=[(0, 5)])

    def test_rejects_empty(self):
        with pytest.raises(GraphFormatError):
            MixedGraph(0)

    @pytest.mark.parametrize("nodes", [2.5, "3", True, None, [3]])
    def test_rejects_a_node_count_that_is_not_an_int(self, nodes):
        with pytest.raises(GraphFormatError, match="node count must be an int"):
            MixedGraph(nodes)

    @pytest.mark.parametrize("edge", [(0, "1"), (0, 1.0), (True, 1), (None, 2)])
    def test_rejects_node_ids_that_are_not_ints(self, edge):
        for kind in ("directed", "undirected"):
            with pytest.raises(GraphFormatError, match=f"{kind} edge .* not an int"):
                MixedGraph(3, **{kind: [edge]})

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 5, "01x"])
    def test_rejects_edges_that_are_not_pairs(self, edge):
        for kind in ("directed", "undirected"):
            with pytest.raises(GraphFormatError, match=f"{kind} edge .* not a pair"):
                MixedGraph(3, **{kind: [edge]})

    def test_rejects_an_edge_list_that_is_not_a_list(self):
        with pytest.raises(GraphFormatError, match="directed edges must be a list"):
            MixedGraph(3, directed=5)

    @pytest.mark.parametrize("data", [
        {"nodes": 2.5}, {"nodes": "3"}, {"nodes": True},
        {"nodes": 3, "directed": [[0, "1"]]}, {"nodes": 3, "directed": 5},
        {"nodes": 3, "directed": [[0, 1.0]]}, {"nodes": 3, "undirected": [[0, 1, 2]]},
    ])
    def test_malformed_json_is_a_format_error(self, tmp_path, data):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        with pytest.raises(GraphFormatError):
            MixedGraph.load(path)

    def test_opposite_directed_arcs_allowed(self):
        g = MixedGraph(2, directed=[(0, 1), (1, 0)])
        assert g.out_neighbors(0) == (1,)
        assert g.out_neighbors(1) == (0,)


class TestOutNeighbors:
    def test_undirected_ring(self, ring3):
        assert ring3.out_neighbors(0) == (1, 2)

    def test_directed_only_no_out_edges(self):
        g = MixedGraph(2, directed=[(0, 1)])
        assert g.out_neighbors(1) == ()

    def test_union_of_both_kinds(self):
        g = MixedGraph(3, directed=[(0, 1)], undirected=[(0, 2)])
        assert g.out_neighbors(0) == (1, 2)

    def test_masks_match_neighbors(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_mixed_graph(rng, max_nodes=8)
            for v in range(g.node_count):
                mask = sum(1 << u for u in g.out_neighbors(v))
                assert g.out_masks[v] == mask


class TestComputability:
    def test_directed_cycle_is_super_weak(self):
        g = MixedGraph(3, directed=[(0, 1), (1, 2), (2, 0)])
        assert super_weak_computable(g)
        assert not weak_computable(g)

    def test_isolated_nodes(self):
        g = MixedGraph(2)
        assert not super_weak_computable(g)
        assert not weak_computable(g)

    def test_path_without_return(self):
        g = MixedGraph(3, directed=[(0, 1), (1, 2)])
        assert not super_weak_computable(g)

    def test_undirected_ring_is_weak(self, ring3):
        assert weak_computable(ring3)
        assert super_weak_computable(ring3)

    def test_single_node(self):
        g = MixedGraph(1)
        assert weak_computable(g)
        assert super_weak_computable(g)

    def test_weak_implies_super_weak_on_random_graphs(self):
        rng = random.Random(20240817)
        checked = 0
        for _ in range(1000):
            g = random_mixed_graph(rng, max_nodes=9)
            if weak_computable(g):
                checked += 1
                assert super_weak_computable(g)
        assert checked > 20  # the sample does hit weak-computable graphs


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = MixedGraph(4, directed=[(0, 2), (3, 1)], undirected=[(0, 1), (2, 3)])
        path = tmp_path / "g.json"
        g.save(path)
        assert MixedGraph.load(path) == g

    def test_json_shape(self):
        g = MixedGraph(3, directed=[(2, 0)], undirected=[(0, 1)])
        data = g.to_json_dict()
        assert data == {"nodes": 3, "directed": [[2, 0]], "undirected": [[0, 1]]}

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(GraphFormatError):
            MixedGraph.load(path)
        path.write_text(json.dumps({"directed": []}))
        with pytest.raises(GraphFormatError):
            MixedGraph.load(path)


def circulant_offsets(g):
    """The offsets in use, when every M_d is full; else None."""
    full = (1 << g.node_count) - 1
    if all(mask == full for _, mask in g.offset_masks):
        return tuple(d for d, _ in g.offset_masks)
    return None


class TestCirculant:
    def test_circle_graphs_report_their_offsets(self):
        for n in range(1, 16, 2):
            for m in range(1, 16, 2):
                mask = Mask(n, m)
                for L in range(3, 13):
                    want = {(-d) % L for d in mask.left_offsets}
                    want |= {d % L for d in mask.right_offsets}
                    want.discard(0)
                    assert circulant_offsets(build_graph(mask, L)) == tuple(sorted(want))

    def test_saved_circle_is_detected_on_load(self, tmp_path):
        path = tmp_path / "circle.json"
        build_graph(Mask(3, 5), 11).save(path)
        assert circulant_offsets(MixedGraph.load(path)) == (1, 3, 9, 10)

    def test_offset_masks_follow_the_out_neighbors(self):
        rng = random.Random(12)
        graphs = [random_mixed_graph(rng, max_nodes=10) for _ in range(100)]
        graphs += [build_graph(Mask(n, m), L) for n, m in ((1, 1), (3, 5), (7, 1))
                   for L in range(3, 12)]
        for g in graphs:
            n = g.node_count
            want = {}
            for v in range(n):
                for u in g.out_neighbors(v):
                    want[(u - v) % n] = want.get((u - v) % n, 0) | 1 << v
            assert g.offset_masks == tuple(sorted(want.items()))
            for d, mask in g.offset_masks:
                assert 0 < d < n and mask
                assert all((mask >> v & 1) == ((v + d) % n in g.out_neighbors(v))
                           for v in range(n))

    @given(st.integers(3, 40).flatmap(
        lambda L: st.tuples(st.just(L), st.frozensets(st.integers(1, L - 1)))))
    def test_built_from_steps_as_from_edges(self, case):
        L, steps = case
        assert_same_graph(MixedGraph.circulant(L, steps), checked_circulant(L, steps))
        # the connection set given, the mask goes unread
        assert mask_weak_computable(Mask(1, 1), L, steps) == weak_computable(
            checked_circulant(L, steps))

    def test_other_graphs_report_none(self):
        rng = random.Random(11)
        for _ in range(100):
            assert circulant_offsets(random_mixed_graph(rng, max_nodes=9, min_nodes=6)) is None
        for mask in (Mask(1, 1), Mask(1, 3), Mask(3, 5)):
            g = build_graph(mask, 9)
            swap = {0: 1, 1: 0}
            relabel = [[swap.get(x, x) for x in edge] for edge in (*g.directed, *g.undirected)]
            swapped = MixedGraph(9, relabel[:len(g.directed)], relabel[len(g.directed):])
            assert circulant_offsets(swapped) is None
