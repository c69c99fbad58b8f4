"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from drguniform import Graph


def relabel(g, perm):
    """``g`` with vertex v renamed perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def connected_graphs(draw, max_n=14):
    """(g, perm, x): a connected graph, a relabelling of its vertices and a
    base vertex.  Vertex v > 0 hangs off a random earlier vertex, so the
    graph is connected, and random chords are added."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    vertex = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph(n, sorted(edges)), draw(st.permutations(range(n))), draw(vertex)
