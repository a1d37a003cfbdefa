"""Differential test of the packed engine against a naive string-level
stepper transcribed from the rule table:

    | P-condition  | A  | B  | C  |
    | no C visible | A  | C  | B  |
    | C visible    | C  | A  | B  |
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from trine.dynamics import run_to_mirror, step
from trine.graph import MixedGraph

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


def test_pinned_runs_end_with_c():
    assert naive_run(*ALL_C_AT_T)[-1] == "CC"
    assert naive_run(*SOME_C_AT_T)[-1] == "ABC"


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
    states = naive_run(g, start)
    run = run_to_mirror(g, start)
    assert run.states == states
    assert run.period == len(states)

    histories = ["".join(state[v] for state in states) for v in range(g.node_count)]
    counts = tuple((h.count("A"), h.count("B"), h.count("C")) for h in histories)
    assert run.color_counts == counts
    lambdas = tuple(n_a - n_c for n_a, _, n_c in counts)
    assert run.lambda_per_node == lambdas
    assert run.lambda_value == (lambdas[0] if len(set(lambdas)) == 1 else None)
