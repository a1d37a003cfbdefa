"""Seeded random graph and coloring generators for the test suite."""

import random

from trine.graph import MixedGraph, super_weak_computable, weak_computable


def random_coloring(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("ABC") for _ in range(n))


def random_two_color(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("AB") for _ in range(n))


def random_mixed_graph(
    rng: random.Random, max_nodes: int = 12, min_nodes: int = 1
) -> MixedGraph:
    """Arbitrary mixed graph: each node pair independently gets nothing,
    an undirected edge, or directed edges in one or both orientations."""
    n = rng.randint(min_nodes, max_nodes)
    directed = []
    undirected = []
    for u in range(n):
        for v in range(u + 1, n):
            roll = rng.random()
            if roll < 0.20:
                undirected.append((u, v))
            elif roll < 0.32:
                directed.append((u, v))
            elif roll < 0.44:
                directed.append((v, u))
            elif roll < 0.50:
                directed.append((u, v))
                directed.append((v, u))
    return MixedGraph(n, directed, undirected)


def random_weak_graph(
    rng: random.Random, max_nodes: int = 10, min_nodes: int = 2
) -> MixedGraph:
    """Weak-computable by construction: a random undirected spanning
    tree, plus extra undirected and directed edges where allowed."""
    n = rng.randint(min_nodes, max_nodes)
    undirected = set()
    attached = [0]
    rest = list(range(1, n))
    rng.shuffle(rest)
    for v in rest:
        u = rng.choice(attached)
        undirected.add((min(u, v), max(u, v)))
        attached.append(v)
    directed = []
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in undirected:
                continue
            roll = rng.random()
            if roll < 0.12:
                undirected.add((u, v))
            elif roll < 0.20:
                directed.append((u, v) if rng.random() < 0.5 else (v, u))
    return MixedGraph(n, directed, sorted(undirected))


def random_super_weak_graph(
    rng: random.Random, max_nodes: int = 10, min_nodes: int = 2
) -> MixedGraph:
    """Super-weak-computable by construction: a directed cycle through
    all nodes in random order, plus random chords."""
    n = rng.randint(min_nodes, max_nodes)
    order = list(range(n))
    rng.shuffle(order)
    cycle = set()
    for i in range(n):
        cycle.add((order[i], order[(i + 1) % n]))
    directed = set(cycle)
    undirected = set()
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in directed or (v, u) in directed:
                continue
            roll = rng.random()
            if roll < 0.10:
                undirected.add((u, v))
            elif roll < 0.18:
                directed.add((u, v) if rng.random() < 0.5 else (v, u))
    return MixedGraph(n, sorted(directed), sorted(undirected))


def checked_circulant(L: int, steps) -> MixedGraph:
    """The circulant graph C_L(S) through the checked constructor: an
    arc x -> x+s mod L for each step s, reciprocal arcs merged into
    undirected edges."""
    arcs = {(x, (x + s) % L) for x in range(L) for s in steps}
    directed = [(u, v) for u, v in arcs if (v, u) not in arcs]
    undirected = [(u, v) for u, v in arcs if u < v and (v, u) in arcs]
    return MixedGraph(L, directed, undirected)


def assert_same_graph(g: MixedGraph, want: MixedGraph) -> None:
    """Every view of ``g`` equals that of ``want``."""
    assert g == want and hash(g) == hash(want)
    assert g.to_json_dict() == want.to_json_dict()
    assert g.offset_masks == want.offset_masks
    assert g.out_masks == want.out_masks
    assert ([g.out_neighbors(v) for v in range(g.node_count)]
            == [want.out_neighbors(v) for v in range(want.node_count)])
    assert repr(g) == repr(want)
    assert weak_computable(g) == weak_computable(want)
    assert super_weak_computable(g) == super_weak_computable(want)
