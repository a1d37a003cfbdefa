"""Mixed graphs (directed + undirected edges) and three-color state maps.

Nodes are dense integers 0..node_count-1.  A coloring is a string over
the alphabet "ABC" with one character per node, so colorings are cheap
to hash, compare and serialize.  Two recolorings act pointwise:

* ``transliterate`` swaps B and C,
* ``complement`` swaps A and B.

Both are involutions.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .errors import GraphFormatError

COLORS = "ABC"

_TRANSLIT = str.maketrans("BC", "CB")
_COMPLEMENT = str.maketrans("AB", "BA")


def transliterate(coloring: str) -> str:
    """Swap colors B and C pointwise (an involution)."""
    return coloring.translate(_TRANSLIT)


def complement(coloring: str) -> str:
    """Swap colors A and B pointwise (an involution); C is unchanged."""
    return coloring.translate(_COMPLEMENT)


def validate_coloring(coloring: str, node_count: int) -> None:
    """Reject colorings of the wrong length or alphabet."""
    if len(coloring) != node_count:
        raise ValueError(
            f"coloring length {len(coloring)} != node count {node_count}"
        )
    if not set(coloring) <= set(COLORS):
        raise ValueError(f"coloring {coloring!r} contains letters outside 'ABC'")


class MixedGraph:
    """A finite graph with both directed and undirected edges.

    Structural invariants, enforced at construction:

    * no loops in either edge set,
    * no duplicate edges within a set,
    * no pair of nodes carries both an undirected edge and a directed
      edge (in either orientation).

    ``circulant`` builds a circulant graph from its steps alone, with no
    edge list and no checks: the step engine reads only ``offset_masks``.
    Its ``directed`` and ``undirected`` edge sets, and any graph's
    ``out_masks``, are derived from the offset masks on first read.
    Instances are immutable after construction and safe to share
    between threads: a derived view is the same whichever thread first
    reads it.
    """

    __slots__ = ("node_count", "_edges", "_out_masks", "_offset_masks")

    def __init__(
        self,
        node_count: int,
        directed: Iterable[Sequence[int]] = (),
        undirected: Iterable[Sequence[int]] = (),
    ):
        if type(node_count) is not int:
            raise GraphFormatError(f"node count must be an int, got {node_count!r}")
        if node_count < 1:
            raise GraphFormatError("graph needs at least one node")
        self.node_count = node_count

        dir_set: set[tuple[int, int]] = set()
        for u, v in self._pairs(directed, "directed"):
            if (u, v) in dir_set:
                raise GraphFormatError(f"duplicate directed edge ({u},{v})")
            dir_set.add((u, v))

        und_set: set[tuple[int, int]] = set()
        for u, v in self._pairs(undirected, "undirected"):
            key = (u, v) if u < v else (v, u)
            if key in und_set:
                raise GraphFormatError(f"duplicate undirected edge {{{u},{v}}}")
            und_set.add(key)

        for u, v in und_set:
            if (u, v) in dir_set or (v, u) in dir_set:
                raise GraphFormatError(
                    f"nodes {u},{v} carry both an undirected and a directed edge"
                )

        self._edges = frozenset(dir_set), frozenset(und_set)
        self._out_masks = None
        offset_masks: dict[int, int] = {}
        for u, v in (*dir_set, *und_set, *((v, u) for u, v in und_set)):
            d = (v - u) % node_count
            offset_masks[d] = offset_masks.get(d, 0) | 1 << u
        self._offset_masks = tuple(sorted(offset_masks.items()))

    @classmethod
    def circulant(cls, node_count: int, steps: Iterable[int]) -> "MixedGraph":
        """The circulant graph C_n(S), n = ``node_count``: an arc v -> v+s
        mod n for each node v and step s in S, reciprocal arcs being
        undirected edges.  Unchecked: S must hold distinct 0 < s < n."""
        g = cls.__new__(cls)
        g.node_count = node_count
        full = (1 << node_count) - 1
        g._offset_masks = tuple((d, full) for d in sorted(steps))
        g._edges = g._out_masks = None
        return g

    def _pairs(self, edges, kind: str):
        """The (u, v) pairs of an edge list, each checked."""
        try:
            edges = iter(edges)
        except TypeError:
            raise GraphFormatError(
                f"{kind} edges must be a list of node pairs, got {edges!r}"
            ) from None
        n = self.node_count
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise GraphFormatError(f"{kind} edge {edge!r} is not a pair of nodes") from None
            if type(u) is not int or type(v) is not int:
                raise GraphFormatError(f"{kind} edge {edge!r} names a node that is not an int")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) references a missing node")
            if u == v:
                raise GraphFormatError(f"loop at node {u} is not allowed")
            yield u, v

    # -- adjacency ---------------------------------------------------

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        """Targets of directed edges from v plus the other ends of
        undirected edges at v, in ascending node order."""
        mask = self.out_masks[v]
        return tuple(u for u in range(self.node_count) if mask >> u & 1)

    @property
    def out_masks(self) -> tuple[int, ...]:
        """Per-node out-neighborhoods as bitmasks (bit u set iff u is an
        out-neighbor)."""
        if self._out_masks is None:
            out_masks = [0] * self.node_count
            for u, v in self._arcs():
                out_masks[u] |= 1 << v
            self._out_masks = tuple(out_masks)
        return self._out_masks

    @property
    def offset_masks(self) -> tuple[tuple[int, int], ...]:
        """The pairs (d, M_d), d ascending, of every offset d in use: bit v
        of M_d is set iff v + d mod node_count is an out-neighbor of v.
        The step engine forms P from these; a graph is circulant in its
        node order when every M_d is full."""
        return self._offset_masks

    @property
    def directed(self) -> frozenset:
        """The directed edges (u, v), u -> v."""
        return self._edge_sets()[0]

    @property
    def undirected(self) -> frozenset:
        """The undirected edges {u, v}, as pairs (u, v) with u < v."""
        return self._edge_sets()[1]

    def _arcs(self) -> set[tuple[int, int]]:
        """The arcs (u, v), u -> v, of the offset masks."""
        n = self.node_count
        return {(u, (u + d) % n) for d, mask in self._offset_masks
                for u in range(n) if mask >> u & 1}

    def _edge_sets(self) -> tuple[frozenset, frozenset]:
        """(directed, undirected): a checked graph's as given, where two
        opposite directed edges are not an undirected one; a
        ``circulant`` graph's from its arcs, merging reciprocal ones."""
        if self._edges is None:
            arcs = self._arcs()
            self._edges = (frozenset(a for a in arcs if a[::-1] not in arcs),
                           frozenset((u, v) for u, v in arcs if u < v and (v, u) in arcs))
        return self._edges

    # -- comparison --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MixedGraph)
            and self.node_count == other.node_count
            and self.directed == other.directed
            and self.undirected == other.undirected
        )

    def __hash__(self) -> int:
        return hash((self.node_count, self.directed, self.undirected))

    def __repr__(self) -> str:
        return (
            f"MixedGraph(nodes={self.node_count}, "
            f"directed={len(self.directed)}, undirected={len(self.undirected)})"
        )

    # -- serialization -----------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "nodes": self.node_count,
            "directed": sorted([u, v] for u, v in self.directed),
            "undirected": sorted([u, v] for u, v in self.undirected),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MixedGraph":
        try:
            nodes = data["nodes"]
            directed = data.get("directed", [])
            undirected = data.get("undirected", [])
        except (TypeError, KeyError) as exc:
            raise GraphFormatError(f"bad graph object: {exc}") from exc
        return cls(nodes, directed, undirected)

    def save(self, path) -> None:
        """Write the graph JSON that ``load`` and ``trine trace --graph``
        read."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MixedGraph":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise GraphFormatError(f"{path}: {exc}") from exc
        return cls.from_json_dict(data)


# -- computability predicates ----------------------------------------


def _reaches_all(adj: list[list[int]]) -> bool:
    """True iff a walk from node 0 along the arcs ``adj`` reaches every
    node."""
    seen = [False] * len(adj)
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == len(adj)


def weak_computable(g: MixedGraph) -> bool:
    """True iff every node can be walked through using undirected edges
    only, i.e. the undirected subgraph is connected and spans all nodes."""
    adj: list[list[int]] = [[] for _ in range(g.node_count)]
    for u, v in g.undirected:
        adj[u].append(v)
        adj[v].append(u)
    return _reaches_all(adj)


def super_weak_computable(g: MixedGraph) -> bool:
    """True iff a closed walk through all nodes exists when directed
    edges are used forward and undirected edges either way.

    Equivalent test: one strongly connected component spans the digraph
    obtained by replacing each undirected edge with two opposite arcs.
    """
    n = g.node_count
    fwd: list[list[int]] = [[] for _ in range(n)]
    rev: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.directed:
        fwd[u].append(v)
        rev[v].append(u)
    for u, v in g.undirected:
        fwd[u].append(v)
        fwd[v].append(u)
        rev[u].append(v)
        rev[v].append(u)
    return _reaches_all(fwd) and _reaches_all(rev)
