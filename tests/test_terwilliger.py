import random
from fractions import Fraction

import numpy as np
import pytest

from drguniform import (
    BudgetExceeded,
    Graph,
    bfs_layers,
    cartesian_product,
    flatten,
    graph_isomorphic,
    intersection_array,
    lfr_split,
)
from drguniform.families import hamming

K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
C6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


def test_split_bipartite_has_no_flat():
    split = lfr_split(C6, x=0)
    assert split.f_nonzeros() == 0
    L, F, R = split.dense()
    assert not F.any()


def test_split_triangle_counts():
    split = lfr_split(K3, x=0)
    L, F, R = split.dense()
    assert int(L.sum()) == 2  # two edges from layer 1 down to the base
    assert int(F.sum()) == 2  # one edge inside layer 1, both directions


def test_split_reassembles_adjacency(h33, j63, shrik):
    for g in (h33, j63, shrik, K3, C6):
        split = lfr_split(g, x=0)
        L, F, R = split.dense()
        A = np.zeros((g.n, g.n), dtype=np.int64)
        for u, v in g.edges():
            A[u, v] = A[v, u] = 1
        assert np.array_equal(L + F + R, A)
        assert np.array_equal(R, L.T)
        assert np.array_equal(F, F.T)


def test_split_column_sums_are_c(h33):
    ia = intersection_array(h33)
    split = lfr_split(h33, x=0)
    for i in range(1, 4):
        blk = split.l_block(i)
        assert (blk.sum(axis=0) == ia.c[i - 1]).all()


def test_apply_matches_blocks(h33):
    split = lfr_split(h33, x=0)
    rng = random.Random(7)
    for i in range(1, 4):
        vec = [rng.randint(-5, 5) for _ in split.dp.layers[i]]
        blk = split.l_block(i)
        assert split.apply_L(i, vec) == list(blk @ np.array(vec))
    vec = [rng.randint(-5, 5) for _ in split.dp.layers[1]]
    blk = split.l_block(2)
    assert split.apply_R(1, vec) == list(blk.T @ np.array(vec))


def _loop_apply(split, gen, i, vec):
    """The exact pure-Python L/F/R products, as reference."""
    if gen == "L":
        return [sum(vec[y] for y in nbrs) for nbrs in split.lrows[i]]
    if gen == "F":
        return [sum(vec[y] for y in nbrs) for nbrs in split.frows[i]]
    out = [0] * len(split.dp.layers[i + 1])
    for z, nbrs in enumerate(split.lrows[i + 1]):
        for y in nbrs:
            out[y] += vec[z]
    return out


def _products(split, i, vec):
    yield "F", split.apply_F(i, vec)
    if i >= 1:
        yield "L", split.apply_L(i, vec)
    if i < split.eccentricity:
        yield "R", split.apply_R(i, vec)


def test_int64_fast_path_matches_loop(j63):
    # small ints; magnitudes at and around 2^62, 2^63 and (2^63 - 1) // k
    # for every row count k the blocks have, all one sign (the largest
    # sums) or mixed with negatives; Fractions, alone and mixed with ints
    split = lfr_split(j63, x=0)
    rng = random.Random(11)
    edges = [2**62, 2**63 - 1, 2**63, 2**64]
    edges += [(2**63 - 1) // k for k in range(1, 10)]
    magnitudes = sorted({m + d for m in edges for d in (-1, 0, 1)})
    for i, layer in enumerate(split.dp.layers):
        w = len(layer)
        vecs = [[rng.randint(-5, 5) for _ in range(w)]]
        for m in magnitudes:
            vecs.append([m] * w)
            vecs.append([-m] * w)
            vecs.append([rng.choice((m, -m, -(2**63), 1)) for _ in range(w)])
        vecs.append([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(w)])
        vecs.append([Fraction(1, 2)] * w)
        vecs.append([1] * (w - 1) + [Fraction(1, 3)])
        for vec in vecs:
            for gen, out in _products(split, i, vec):
                assert out == _loop_apply(split, gen, i, vec), (gen, i, vec[:3])
                if all(type(x) is int for x in vec):
                    assert all(type(x) is int for x in out)


def test_flatten_bipartite_fixed_point():
    fl = flatten(C6, 0)
    assert sorted(fl.graph.edges()) == sorted(C6.edges())
    assert fl.removed_edges == 0


def test_flatten_triangle():
    fl = flatten(K3, 0)
    assert sorted(fl.graph.edges()) == [(0, 1), (0, 2)]
    assert fl.removed_edges == 1


def test_flatten_preserves_partition(h33, shrik, gosset_graph):
    for g in (h33, shrik, gosset_graph):
        dp = bfs_layers(g, 0)
        fl = flatten(g, 0)
        assert fl.graph.is_bipartite()
        dp_f = bfs_layers(fl.graph, 0)  # also proves connectivity
        assert dp_f.layers == dp.layers
        inside = sum(
            1 for u, v in g.edges() if dp.layer_of[u] == dp.layer_of[v]
        )
        assert fl.graph.m == g.m - inside
        assert fl.removed_edges == inside


def test_cartesian_product_basics():
    k2 = hamming(1, 2)
    c4 = cartesian_product(k2, k2)
    assert graph_isomorphic(c4, Graph(4, [(0, 1), (1, 3), (2, 3), (0, 2)]))
    with pytest.raises(BudgetExceeded):
        cartesian_product(hamming(3, 4), hamming(3, 4), budget=100)


def test_flatten_commutes_with_product():
    k3 = hamming(1, 3)
    prod = cartesian_product(k3, k3)
    lhs = flatten(prod, 0).graph
    rhs = cartesian_product(flatten(k3, 0).graph, flatten(k3, 0).graph)
    assert sorted(lhs.edges()) == sorted(rhs.edges())


def test_isomorphic_to_relabeled_self(h33):
    rng = random.Random(20240611)
    perm = list(range(h33.n))
    rng.shuffle(perm)
    relabeled = Graph(
        h33.n, [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in h33.edges()]
    )
    mapping = graph_isomorphic(h33, relabeled)
    assert mapping is not None
    for u, v in h33.edges():
        assert relabeled.adjacent(mapping[u], mapping[v])


def test_flattened_shrikhande_vs_product(shrik):
    kk = cartesian_product(hamming(1, 4), hamming(1, 4))
    assert graph_isomorphic(flatten(shrik, 0).graph, flatten(kk, 0).graph)


def test_shrikhande_not_hamming(shrik):
    assert graph_isomorphic(shrik, hamming(2, 4)) is None


def test_isomorphism_budget():
    with pytest.raises(BudgetExceeded):
        graph_isomorphic(hamming(2, 3), hamming(2, 3), vertex_bound=4)
